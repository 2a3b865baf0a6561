//! DMA engine model.
//!
//! On the real platform the I2S controller's FIFO is drained by a DMA
//! channel into a ring of period buffers in memory; the CPU is only
//! interrupted once per period. The driver (baseline or secure) programs
//! the channel with a destination buffer and a period size, and consumes
//! periods as they complete.
//!
//! The model is synchronous: [`DmaChannel::transfer`] copies samples into a
//! byte buffer as one slice write and reports the transfer it performed,
//! including the bus time the transfer would occupy. Period-interrupt pacing is handled by
//! the driver layers, which know about the platform clock.

use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::{DeviceError, Result};

/// A completed DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaTransfer {
    /// Bytes written to the destination.
    pub bytes: usize,
    /// Time the transfer occupied on the memory bus.
    pub bus_time: SimDuration,
}

/// Configuration of a DMA channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaConfig {
    /// Burst size in bytes; transfers are rounded up to whole bursts when
    /// computing bus occupancy.
    pub burst_bytes: usize,
    /// Sustained copy bandwidth of the engine in MiB/s.
    pub bandwidth_mib_s: u32,
}

impl DmaConfig {
    /// A Tegra-class audio DMA channel (APE ADMA): 64-byte bursts, ample
    /// bandwidth for audio.
    pub fn audio_default() -> Self {
        DmaConfig {
            burst_bytes: 64,
            bandwidth_mib_s: 1_000,
        }
    }
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig::audio_default()
    }
}

/// A DMA channel that moves 16-bit samples into byte buffers.
#[derive(Debug, Clone)]
pub struct DmaChannel {
    config: DmaConfig,
    transfers: u64,
    bytes_moved: u64,
}

impl DmaChannel {
    /// Creates a channel with the given configuration.
    pub fn new(config: DmaConfig) -> Self {
        DmaChannel {
            config,
            transfers: 0,
            bytes_moved: 0,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> DmaConfig {
        self.config
    }

    /// Number of transfers performed.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Copies `samples` into `dst` as little-endian bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BufferTooSmall`] if `dst` cannot hold all the
    /// samples; nothing is written in that case.
    pub fn transfer(&mut self, samples: &[i16], dst: &mut [u8]) -> Result<DmaTransfer> {
        self.transfer_with(samples.len() * 2, dst, |dst| {
            crate::codec::write_pcm_le(samples, dst)
        })
    }

    /// Copies `bytes` into `dst` as the 16-bit words
    /// [`DmaChannel::transfer`] moves: two bytes per word, in order, and an
    /// odd trailing byte padded with one zero byte. The bytes written and
    /// the accounting are those of transferring the bytes packed into
    /// little-endian words.
    ///
    /// # Errors
    ///
    /// Same as [`DmaChannel::transfer`].
    pub fn transfer_bytes(&mut self, bytes: &[u8], dst: &mut [u8]) -> Result<DmaTransfer> {
        self.transfer_with(bytes.len().div_ceil(2) * 2, dst, |dst| {
            let (data, pad) = dst.split_at_mut(bytes.len());
            data.copy_from_slice(bytes);
            pad.fill(0);
        })
    }

    /// Checks that `dst` holds `required` bytes, lets `write` fill exactly
    /// those, and accounts the transfer.
    fn transfer_with(
        &mut self,
        required: usize,
        dst: &mut [u8],
        write: impl FnOnce(&mut [u8]),
    ) -> Result<DmaTransfer> {
        if dst.len() < required {
            return Err(DeviceError::BufferTooSmall {
                required,
                available: dst.len(),
            });
        }
        write(&mut dst[..required]);
        let bus_time = self.bus_time_for(required);
        self.transfers += 1;
        self.bytes_moved += required as u64;
        Ok(DmaTransfer {
            bytes: required,
            bus_time,
        })
    }

    /// Bus time a transfer of `bytes` occupies, rounded up to whole bursts.
    pub fn bus_time_for(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let bursts = bytes.div_ceil(self.config.burst_bytes);
        let effective_bytes = bursts * self.config.burst_bytes;
        let bytes_per_sec = self.config.bandwidth_mib_s as f64 * 1024.0 * 1024.0;
        SimDuration::from_secs_f64(effective_bytes as f64 / bytes_per_sec)
    }
}

impl Default for DmaChannel {
    fn default() -> Self {
        DmaChannel::new(DmaConfig::default())
    }
}

/// Decodes a little-endian byte buffer produced by [`DmaChannel::transfer`]
/// back into samples. Odd trailing bytes are ignored.
pub fn bytes_to_samples(bytes: &[u8]) -> Vec<i16> {
    crate::codec::bytes_to_pcm(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_round_trips_samples() {
        let mut dma = DmaChannel::default();
        let samples = vec![0i16, 1, -1, i16::MAX, i16::MIN, 12345];
        let mut dst = vec![0u8; samples.len() * 2];
        let t = dma.transfer(&samples, &mut dst).unwrap();
        assert_eq!(t.bytes, 12);
        assert_eq!(bytes_to_samples(&dst), samples);
        assert_eq!(dma.transfer_count(), 1);
        assert_eq!(dma.bytes_moved(), 12);
    }

    #[test]
    fn byte_transfers_move_what_packed_words_move() {
        for len in [0usize, 1, 2, 35, 64, 127, 3072] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let words: Vec<i16> = bytes
                .chunks(2)
                .map(|c| i16::from_le_bytes([c[0], *c.get(1).unwrap_or(&0)]))
                .collect();
            let (mut by_word, mut by_byte) = (DmaChannel::default(), DmaChannel::default());
            let mut dst_word = vec![0xEEu8; len + 4];
            let mut dst_byte = vec![0xEEu8; len + 4];
            let t_word = by_word.transfer(&words, &mut dst_word).unwrap();
            let t_byte = by_byte.transfer_bytes(&bytes, &mut dst_byte).unwrap();
            assert_eq!(t_byte, t_word, "{len} bytes");
            assert_eq!(dst_byte, dst_word, "{len} bytes");
            assert_eq!(by_byte.bytes_moved(), by_word.bytes_moved());
            assert_eq!(by_byte.transfer_count(), 1);
            if len % 2 == 1 {
                // The odd frame's pad byte is written as zero.
                assert_eq!(dst_byte[len], 0);
                assert_eq!(t_byte.bytes, len + 1);
            }
        }
        let mut dma = DmaChannel::default();
        let mut dst = [0u8; 4];
        assert!(matches!(
            dma.transfer_bytes(&[1, 2, 3, 4, 5], &mut dst),
            Err(DeviceError::BufferTooSmall {
                required: 6,
                available: 4
            })
        ));
        assert_eq!(dma.transfer_count(), 0);
        assert_eq!(dst, [0; 4]);
    }

    #[test]
    fn transfer_into_small_buffer_fails_cleanly() {
        let mut dma = DmaChannel::default();
        let mut dst = vec![0u8; 4];
        let err = dma.transfer(&[1, 2, 3], &mut dst).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::BufferTooSmall {
                required: 6,
                available: 4
            }
        ));
        assert_eq!(dma.transfer_count(), 0);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn bus_time_rounds_up_to_bursts_and_scales() {
        let dma = DmaChannel::new(DmaConfig {
            burst_bytes: 64,
            bandwidth_mib_s: 1,
        });
        assert_eq!(dma.bus_time_for(0), SimDuration::ZERO);
        let one_burst = dma.bus_time_for(1);
        assert_eq!(one_burst, dma.bus_time_for(64));
        assert_eq!(dma.bus_time_for(65), dma.bus_time_for(128));
        // 1 MiB at 1 MiB/s takes one second.
        let one_mib = dma.bus_time_for(1024 * 1024);
        assert_eq!(one_mib, SimDuration::from_secs(1));
    }

    #[test]
    fn bytes_to_samples_ignores_trailing_odd_byte() {
        assert_eq!(bytes_to_samples(&[0x01, 0x00, 0xFF]), vec![1]);
        assert!(bytes_to_samples(&[]).is_empty());
    }
}
