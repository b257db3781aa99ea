//! Quickstart: exfiltrate a short message across SMT threads.
//!
//! The sender and receiver run on the two hardware threads of one
//! Cannon Lake core. The sender encodes two bits per transaction in the
//! computational intensity of a PHI loop; the receiver times a scalar
//! loop with `rdtsc` and decodes the bits from the co-throttling it
//! experiences (the paper's IccSMTcovert, §4.2).
//!
//! Run with: `cargo run --release --example quickstart`

use ichannels::channel::{ChannelError, IChannel};
use ichannels::symbols::{bits_to_bytes, bits_to_symbols, bytes_to_bits, symbols_to_bits};

fn main() -> Result<(), ChannelError> {
    let secret = b"IChannels!";
    println!("secret message: {:?}", String::from_utf8_lossy(secret));

    // 1. Build the channel (Cannon Lake @ 1.4 GHz, sender on thread
    //    (0,0), receiver on (0,1)).
    let channel = IChannel::icc_smt_covert();
    println!(
        "channel: {} on {} (2 bits per transaction)",
        channel.kind(),
        channel.config().soc.platform.name,
    );

    // 2. Calibrate: learn the four throttling-period levels.
    let cal = channel.try_calibrate(3)?;
    println!("calibrated level means (TSC cycles): {:?}", cal.means());
    println!(
        "minimum level separation: {:.0} cycles (paper: > 2000)",
        cal.min_separation_cycles()
    );

    // 3. Transmit.
    let bits = bytes_to_bits(secret);
    let tx = channel.try_transmit_symbols(&bits_to_symbols(&bits), &cal)?;
    let received = bits_to_bytes(&symbols_to_bits(&tx.received));
    println!(
        "received:       {:?}  (BER = {:.4}, {:.0} b/s)",
        String::from_utf8_lossy(&received),
        tx.bit_error_rate(),
        tx.throughput_bps()
    );
    assert_eq!(received, secret, "transmission corrupted");
    println!("covert transmission succeeded");
    Ok(())
}
