//! Process-wide pool accounting across thread exits.
//!
//! This binary holds a single test: `pool_held_bytes` is a process-global
//! counter, and a sibling test thread taking or recycling slabs would move
//! it between the two reads below.

use lightts_tensor::pool;

#[test]
fn exited_threads_release_their_held_bytes() {
    const SLAB: usize = 1 << 20; // 4 MiB of f32
    let before = pool::pool_held_bytes();
    for _ in 0..3 {
        std::thread::spawn(|| {
            pool::recycle(pool::take_empty(SLAB));
            assert_eq!(pool::thread_pool_held_bytes(), 4 * SLAB as u64);
        })
        .join()
        .expect("pool thread panicked");
    }
    // `join` returns after the thread's locals are destroyed, so its free
    // lists and the slab parked in them are gone.
    assert_eq!(pool::pool_held_bytes(), before);
}
