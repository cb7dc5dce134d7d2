//! Regenerates Figure 1 of the paper: an undesired (spiky) power
//! schedule versus the desired (power-constrained) schedule for the same
//! workload and latency.

use pchls_cdfg::benchmarks::hal;
use pchls_fulib::{paper_library, SelectionPolicy};
use pchls_sched::{asap, pasap, PowerBudget, PowerProfile, TimingMap};

fn main() {
    let g = hal();
    let lib = paper_library();
    let timing = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);

    let spiky = asap(&g, &timing);
    let spiky_profile = PowerProfile::of(&spiky, &timing);
    let bound = spiky_profile.peak() / 2.5; // the paper's dashed P< line

    let flat = pasap(&g, &timing, &PowerBudget::constant(bound), 100)
        .expect("power-feasible with this bound");
    let flat_profile = PowerProfile::of(&flat, &timing);

    println!("Figure 1. Power schedules for `hal` (fastest modules).");
    println!(
        "\nUndesired schedule (ASAP): peak {:.1}, {} cycles, peak/avg {:.2}",
        spiky_profile.peak(),
        spiky_profile.cycles(),
        spiky_profile.peak_to_average()
    );
    print!("{}", spiky_profile.to_ascii(40));
    println!(
        "\nDesired schedule (pasap, P< = {bound:.1}): peak {:.1}, {} cycles, peak/avg {:.2}",
        flat_profile.peak(),
        flat_profile.cycles(),
        flat_profile.peak_to_average()
    );
    print!("{}", flat_profile.to_ascii(40));
    assert!(flat_profile.peak() <= bound + 1e-9);
}
