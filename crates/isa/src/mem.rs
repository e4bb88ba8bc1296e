//! The functional (value) image of memory.
//!
//! In an invalidation-based MESI protocol that acknowledges a write only
//! after all invalidations are collected (the paper's §II-E assumption —
//! write atomicity), every store has a single *commit instant*: the cycle
//! its value is written into the owning L1. Stale shared copies of the
//! line are destroyed strictly before that instant, so at any cycle `t`
//! every cache hit in the system observes exactly the value produced by the
//! last store committed at or before `t`.
//!
//! That equivalence lets the simulator keep one global value image updated
//! at store-commit time instead of threading data bytes through protocol
//! messages: a load that *performs* (receives its data) at cycle `t` reads
//! the image as of `t`. Store-to-load forwarding never consults the image —
//! the value comes straight from the SQ/SB entry, which is precisely the
//! store-atomicity loophole the paper studies.

use crate::hash::FastMap;
use crate::{Addr, Value};

/// The global functional memory image (8-byte granularity with sub-word
/// masking), updated at store-commit instants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueMemory {
    words: FastMap<Addr, Value>,
}

impl ValueMemory {
    /// An all-zeros memory.
    pub fn new() -> ValueMemory {
        ValueMemory::default()
    }

    fn word_addr(addr: Addr) -> Addr {
        addr & !7
    }

    /// Reads `size` bytes at `addr` (zero-extended). Unwritten memory
    /// reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the access is misaligned for its size.
    pub fn read(&self, addr: Addr, size: u8) -> Value {
        assert_eq!(addr % u64::from(size), 0, "misaligned read at {addr:#x}");
        let word = self.words.get(&Self::word_addr(addr)).copied().unwrap_or(0);
        if size == 8 {
            return word;
        }
        let shift = (addr & 7) * 8;
        let mask = (1u64 << (u64::from(size) * 8)) - 1;
        (word >> shift) & mask
    }

    /// Writes `size` bytes of `value` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the access is misaligned for its size.
    pub fn write(&mut self, addr: Addr, size: u8, value: Value) {
        assert_eq!(addr % u64::from(size), 0, "misaligned write at {addr:#x}");
        let slot = self.words.entry(Self::word_addr(addr)).or_insert(0);
        if size == 8 {
            *slot = value;
            return;
        }
        let shift = (addr & 7) * 8;
        let mask = ((1u64 << (u64::from(size) * 8)) - 1) << shift;
        *slot = (*slot & !mask) | ((value << shift) & mask);
    }

    /// Number of distinct 8-byte words ever written.
    pub fn words_written(&self) -> usize {
        self.words.len()
    }
}

/// The value-image access interface the core pipeline is generic over.
///
/// The serial engines hand each core `&mut ValueMemory` directly; the
/// parallel engine hands every shard a [`StripedValueMemory`] reference
/// whose word-striped locks make concurrent access sound. Which
/// implementation a load observes is timing-invisible: the coherence
/// protocol separates conflicting same-address accesses by at least one
/// cross-shard message latency, so both images always return the same
/// value at the same simulated cycle.
pub trait ValueImage {
    /// Reads `size` bytes at `addr` (zero-extended).
    fn read(&self, addr: Addr, size: u8) -> Value;
    /// Writes `size` bytes of `value` at `addr`.
    fn write(&mut self, addr: Addr, size: u8, value: Value);
}

impl ValueImage for ValueMemory {
    #[inline]
    fn read(&self, addr: Addr, size: u8) -> Value {
        ValueMemory::read(self, addr, size)
    }

    #[inline]
    fn write(&mut self, addr: Addr, size: u8, value: Value) {
        ValueMemory::write(self, addr, size, value)
    }
}

/// Number of lock stripes in a [`StripedValueMemory`]; power of two so
/// the stripe index is a mask of the word-address hash.
const VALUE_STRIPES: usize = 64;

/// A [`ValueMemory`] split into independently locked word stripes so
/// shards of the parallel engine can read and write concurrently.
///
/// Correctness does not rely on lock ordering: the simulated coherence
/// protocol guarantees that two accesses to the *same word* from
/// different shards are separated by a cross-shard message (and hence an
/// epoch barrier), so each lock only ever arbitrates host-level access
/// to *different* words sharing a stripe — never a simulated race.
#[derive(Debug)]
pub struct StripedValueMemory {
    stripes: Vec<std::sync::Mutex<FastMap<Addr, Value>>>,
}

impl StripedValueMemory {
    fn stripe_of(word: Addr) -> usize {
        // Words are 8-byte aligned; drop the alignment zeros first.
        ((word >> 3) as usize) & (VALUE_STRIPES - 1)
    }

    /// Splits `mem` (the value image at the start of a run) into stripes.
    pub fn from_value_memory(mem: ValueMemory) -> StripedValueMemory {
        let mut stripes: Vec<FastMap<Addr, Value>> =
            (0..VALUE_STRIPES).map(|_| FastMap::default()).collect();
        for (addr, value) in mem.words {
            stripes[Self::stripe_of(addr)].insert(addr, value);
        }
        StripedValueMemory {
            stripes: stripes.into_iter().map(std::sync::Mutex::new).collect(),
        }
    }

    /// Collapses the stripes back into one [`ValueMemory`] (the final
    /// image a litmus checker inspects).
    pub fn into_value_memory(self) -> ValueMemory {
        let mut words = FastMap::default();
        for stripe in self.stripes {
            for (addr, value) in stripe.into_inner().expect("no poisoned stripes") {
                words.insert(addr, value);
            }
        }
        ValueMemory { words }
    }

    /// Reads `size` bytes at `addr` (zero-extended), locking one stripe.
    pub fn read(&self, addr: Addr, size: u8) -> Value {
        assert_eq!(addr % u64::from(size), 0, "misaligned read at {addr:#x}");
        let word_addr = addr & !7;
        let stripe = self.stripes[Self::stripe_of(word_addr)]
            .lock()
            .expect("no poisoned stripes");
        let word = stripe.get(&word_addr).copied().unwrap_or(0);
        if size == 8 {
            return word;
        }
        let shift = (addr & 7) * 8;
        let mask = (1u64 << (u64::from(size) * 8)) - 1;
        (word >> shift) & mask
    }

    /// Writes `size` bytes of `value` at `addr`; the sub-word
    /// read-modify-write happens under the stripe lock.
    pub fn write(&self, addr: Addr, size: u8, value: Value) {
        assert_eq!(addr % u64::from(size), 0, "misaligned write at {addr:#x}");
        let word_addr = addr & !7;
        let mut stripe = self.stripes[Self::stripe_of(word_addr)]
            .lock()
            .expect("no poisoned stripes");
        let slot = stripe.entry(word_addr).or_insert(0);
        if size == 8 {
            *slot = value;
            return;
        }
        let shift = (addr & 7) * 8;
        let mask = ((1u64 << (u64::from(size) * 8)) - 1) << shift;
        *slot = (*slot & !mask) | ((value << shift) & mask);
    }
}

impl ValueImage for &StripedValueMemory {
    #[inline]
    fn read(&self, addr: Addr, size: u8) -> Value {
        StripedValueMemory::read(self, addr, size)
    }

    #[inline]
    fn write(&mut self, addr: Addr, size: u8, value: Value) {
        StripedValueMemory::write(self, addr, size, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = ValueMemory::new();
        assert_eq!(m.read(0x1000, 8), 0);
        assert_eq!(m.words_written(), 0);
    }

    #[test]
    fn full_word_roundtrip() {
        let mut m = ValueMemory::new();
        m.write(0x1000, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(0x1000, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(0x1008, 8), 0);
    }

    #[test]
    fn subword_write_preserves_neighbours() {
        let mut m = ValueMemory::new();
        m.write(0x1000, 8, 0x1111_1111_1111_1111);
        m.write(0x1004, 4, 0xabcd_ef01);
        assert_eq!(m.read(0x1000, 4), 0x1111_1111);
        assert_eq!(m.read(0x1004, 4), 0xabcd_ef01);
        assert_eq!(m.read(0x1000, 8), 0xabcd_ef01_1111_1111);
    }

    #[test]
    fn byte_granularity() {
        let mut m = ValueMemory::new();
        m.write(0x1003, 1, 0xff);
        assert_eq!(m.read(0x1000, 8), 0xff00_0000);
        m.write(0x1003, 1, 0x01);
        assert_eq!(m.read(0x1003, 1), 0x01);
    }

    #[test]
    fn subword_value_truncated() {
        let mut m = ValueMemory::new();
        m.write(0x1000, 2, 0x1_2345);
        assert_eq!(m.read(0x1000, 2), 0x2345);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_read_panics() {
        let m = ValueMemory::new();
        let _ = m.read(0x1001, 8);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_write_panics() {
        let mut m = ValueMemory::new();
        m.write(0x1002, 4, 0);
    }
}
