//! A warm MCT round allocates its schedule and nothing else: the
//! admissible sites are walked in place and the tentative availability is
//! a scratch vector the scheduler keeps and refreshes from the view. A
//! 16-job round on a 20-site grid, after one round has warmed the
//! scratch, makes at most 2 allocations (`alloc` or `realloc`), in Risky
//! and in Secure mode. Counted under a counting global allocator, which
//! is process-wide: this binary holds exactly one `#[test]`.

use gridsec_core::etc::NodeAvailability;
use gridsec_core::{Grid, Job, RiskMode, SecurityModel, Site, Time};
use gridsec_heuristics::Mct;
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_16_job_mct_round_makes_at_most_2_allocations() {
    let grid = Grid::new(
        (0..20)
            .map(|s| {
                Site::builder(s)
                    .nodes(1)
                    .speed(f64::from(1 + s as u32 % 10))
                    .security_level(0.4 + 0.03 * s as f64)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap();
    let mut avail: Vec<NodeAvailability> = (0..20)
        .map(|_| NodeAvailability::new(1, Time::ZERO))
        .collect();
    avail[3].commit(1, Time::new(40.0));
    let batch: Vec<BatchJob> = (0..16)
        .map(|i| BatchJob {
            job: Job::builder(i)
                .work(10.0 + i as f64)
                .security_demand(0.5 + 0.02 * i as f64)
                .build()
                .unwrap(),
            secure_only: i % 5 == 0,
        })
        .collect();
    let view = GridView {
        grid: &grid,
        avail: &avail,
        now: Time::new(1.0),
        model: SecurityModel::default(),
    };
    for mode in [RiskMode::Risky, RiskMode::Secure] {
        let mut mct = Mct::new(mode);
        let cold = mct.schedule(&batch, &view);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let warm = mct.schedule(&batch, &view);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(cold, warm, "{mode:?}: the scratch changed the answer");
        assert_eq!(warm.assignments.len(), 16);
        assert!(allocations <= 2, "{mode:?}: {allocations} allocations");
    }
}
