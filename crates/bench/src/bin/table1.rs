//! Regenerates Table 1 of the paper: the functional-unit library.

fn main() {
    let lib = pchls_fulib::paper_library();
    println!("Table 1. Functional unit library.");
    println!(
        "{:<10} {:<10} {:>5} {:>9} {:>5}",
        "Module", "Oprs", "Area", "Clk-cyc.", "P"
    );
    println!("{}", "-".repeat(44));
    for m in lib.modules() {
        let ops: Vec<&str> = m.ops().iter().map(|k| k.symbol()).collect();
        println!(
            "{:<10} {:<10} {:>5} {:>9} {:>5}",
            m.name(),
            format!("{{{}}}", ops.join(",")),
            m.area(),
            m.latency(),
            pchls_fulib::units(m.power())
        );
    }
}
