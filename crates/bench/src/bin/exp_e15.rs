//! Experiment E15 harness: the bounded work-stealing fleet executor
//! (camera fleets on a fixed worker pool, report byte-identity across
//! worker counts, a 10k+ device mega-fleet) plus session work stealing.
fn main() {
    println!("{}", perisec_bench::run_e15_fleet_executor());
}
