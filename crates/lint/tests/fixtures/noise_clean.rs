use dpta_dp::{BudgetLedger, SeededNoise};

pub fn charged_draw(seed: u64, ledger: &mut BudgetLedger, id: u64, eps: f64) -> SeededNoise {
    let noise = SeededNoise::new(seed);
    ledger.charge(id, eps);
    noise
}
