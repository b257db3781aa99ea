//! Payload streams and the effective symbol rate the campaign engine
//! scores bit-error rate and capacity with (paper §6.2, §6.3).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::channel::IChannel;
use crate::symbols::Symbol;

/// The channel's effective symbol rate (symbols/s): one transaction
/// slot per symbol, stretched by the calibrated receiver's
/// repeat-and-vote count where one is in force.
pub fn symbol_rate(channel: &IChannel) -> f64 {
    1.0 / (channel.config().slot_period.as_secs() * channel.slots_per_symbol() as f64)
}

/// Draws `n` uniform random symbols.
pub fn random_symbols(n: usize, seed: u64) -> Vec<Symbol> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Symbol::new(rng.gen_range(0..4))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_symbols_are_deterministic_per_seed() {
        assert_eq!(random_symbols(16, 9), random_symbols(16, 9));
        assert_ne!(random_symbols(16, 9), random_symbols(16, 10));
    }
}
