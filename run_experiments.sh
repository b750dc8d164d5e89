#!/bin/bash
# Runs every experiment binary at quick scale, recording TSV outputs.
set -u
cd "$(dirname "$0")"
mkdir -p results
cargo build --release -p lightts-bench
BINS="table3_removal fig13_ranking table2_inception fig18_training_time table4_nondeep fig19_sensitivity fig20_n_effect fig17_fewclass_ranking fig22_pareto table6_search_time table5_gp_estimation fig21_base_improvement fig23_varying_p ablation_aed"
for b in $BINS; do
  echo "=== $b start $(date +%T) ==="
  ./target/release/$b --scale quick > results/$b.tsv 2> results/$b.log
  echo "=== $b done  $(date +%T) rc=$? ==="
done
echo ALL_DONE
