//! Wire formats for the `flowinfo` header (paper Fig. 3).
//!
//! The paper proposes two encodings:
//!
//! * **Layer-3 shim header** (7 bytes): sits between Ethernet and IP and
//!   stores the EtherType of the encapsulated IP header, the 32-bit RFS,
//!   and a bitfield byte — `retcnt` (4 bits), `flow id` (3 bits), `FLAGS`
//!   (1 bit).
//! * **IPv4 option** (8 bytes): a copied experimental option carrying the
//!   same fields, terminated by an `END` octet to pad the option list to a
//!   32-bit boundary.
//!
//! The simulator passes [`FlowInfo`] around as a struct, but these codecs
//! are what a host dataplane would run per packet, so they are implemented
//! and tested bit-exactly. `examples/host_microbench` times them on the
//! paper's §4.4 TX/RX path, beside perfbench's per-layer probes of the
//! marking and ordering components.

use vertigo_pkt::FlowInfo;

/// Size of the layer-3 shim encoding.
pub const L3_WIRE_BYTES: usize = 7;
/// Size of the IPv4-option encoding.
pub const IPV4_OPTION_BYTES: usize = 8;

/// The EtherType we assign to the flowinfo shim itself (unassigned range).
pub const FLOWINFO_ETHERTYPE: u16 = 0x88F9;
/// EtherType of the encapsulated protocol stored inside the shim (IPv4).
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IPv4 option type: copy=1, class=0, number=30 (experimental).
pub const OPTION_TYPE: u8 = 0x9E;
/// IPv4 option length field: type + len + RFS + bitfield.
pub const OPTION_LEN: u8 = 7;
/// IPv4 End-of-Option-List octet used as padding.
pub const OPTION_END: u8 = 0x00;

/// Errors from decoding a flowinfo header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the encoding.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// A fixed field (ethertype / option type / option length / END pad)
    /// holds an unexpected value.
    BadField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "flowinfo truncated: need {need} bytes, got {got}")
            }
            WireError::BadField(which) => write!(f, "flowinfo bad field: {which}"),
        }
    }
}

impl std::error::Error for WireError {}

#[inline]
fn pack_bits(info: &FlowInfo) -> u8 {
    debug_assert!(info.retcnt <= 0xF, "retcnt overflows 4 bits");
    debug_assert!(info.flow_seq <= 0x7, "flow_seq overflows 3 bits");
    ((info.retcnt & 0xF) << 4) | ((info.flow_seq & 0x7) << 1) | (info.first as u8)
}

#[inline]
fn unpack_bits(b: u8) -> (u8, u8, bool) {
    (b >> 4, (b >> 1) & 0x7, b & 1 == 1)
}

/// Encodes the layer-3 shim variant into `buf` (must be ≥ 7 bytes).
/// Returns the number of bytes written.
pub fn encode_l3(info: &FlowInfo, buf: &mut [u8]) -> Result<usize, WireError> {
    if buf.len() < L3_WIRE_BYTES {
        return Err(WireError::Truncated {
            need: L3_WIRE_BYTES,
            got: buf.len(),
        });
    }
    buf[0..2].copy_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
    buf[2..6].copy_from_slice(&info.rfs.to_be_bytes());
    buf[6] = pack_bits(info);
    Ok(L3_WIRE_BYTES)
}

/// Decodes the layer-3 shim variant.
pub fn decode_l3(buf: &[u8]) -> Result<FlowInfo, WireError> {
    if buf.len() < L3_WIRE_BYTES {
        return Err(WireError::Truncated {
            need: L3_WIRE_BYTES,
            got: buf.len(),
        });
    }
    let ethertype = u16::from_be_bytes([buf[0], buf[1]]);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(WireError::BadField("inner ethertype"));
    }
    let rfs = u32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]);
    let (retcnt, flow_seq, first) = unpack_bits(buf[6]);
    Ok(FlowInfo {
        rfs,
        retcnt,
        flow_seq,
        first,
    })
}

/// Encodes the IPv4-option variant into `buf` (must be ≥ 8 bytes).
/// Returns the number of bytes written.
pub fn encode_ipv4_option(info: &FlowInfo, buf: &mut [u8]) -> Result<usize, WireError> {
    if buf.len() < IPV4_OPTION_BYTES {
        return Err(WireError::Truncated {
            need: IPV4_OPTION_BYTES,
            got: buf.len(),
        });
    }
    buf[0] = OPTION_TYPE;
    buf[1] = OPTION_LEN;
    buf[2..6].copy_from_slice(&info.rfs.to_be_bytes());
    buf[6] = pack_bits(info);
    buf[7] = OPTION_END;
    Ok(IPV4_OPTION_BYTES)
}

/// Decodes the IPv4-option variant.
pub fn decode_ipv4_option(buf: &[u8]) -> Result<FlowInfo, WireError> {
    if buf.len() < IPV4_OPTION_BYTES {
        return Err(WireError::Truncated {
            need: IPV4_OPTION_BYTES,
            got: buf.len(),
        });
    }
    if buf[0] != OPTION_TYPE {
        return Err(WireError::BadField("option type"));
    }
    if buf[1] != OPTION_LEN {
        return Err(WireError::BadField("option length"));
    }
    if buf[7] != OPTION_END {
        return Err(WireError::BadField("option END pad"));
    }
    let rfs = u32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]);
    let (retcnt, flow_seq, first) = unpack_bits(buf[6]);
    Ok(FlowInfo {
        rfs,
        retcnt,
        flow_seq,
        first,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> FlowInfo {
        FlowInfo {
            rfs: 0xDEAD_BEEF,
            retcnt: 5,
            flow_seq: 3,
            first: true,
        }
    }

    #[test]
    fn l3_roundtrip() {
        let mut buf = [0u8; 16];
        let n = encode_l3(&sample(), &mut buf).unwrap();
        assert_eq!(n, 7);
        assert_eq!(decode_l3(&buf).unwrap(), sample());
    }

    #[test]
    fn ipv4_roundtrip() {
        let mut buf = [0u8; 16];
        let n = encode_ipv4_option(&sample(), &mut buf).unwrap();
        assert_eq!(n, 8);
        assert_eq!(decode_ipv4_option(&buf).unwrap(), sample());
    }

    #[test]
    fn overheads_match_paper() {
        // Paper Fig. 3: 7 bytes as an L3 header, 8 bytes as an IPv4 option.
        assert_eq!(L3_WIRE_BYTES, 7);
        assert_eq!(IPV4_OPTION_BYTES, 8);
    }

    #[test]
    fn truncation_detected() {
        let mut small = [0u8; 3];
        assert!(matches!(
            encode_l3(&sample(), &mut small),
            Err(WireError::Truncated { need: 7, got: 3 })
        ));
        assert!(matches!(
            decode_ipv4_option(&small),
            Err(WireError::Truncated { need: 8, got: 3 })
        ));
    }

    #[test]
    fn corrupt_fields_detected() {
        let mut buf = [0u8; 8];
        encode_ipv4_option(&sample(), &mut buf).unwrap();
        let mut bad_type = buf;
        bad_type[0] = 0x01;
        assert_eq!(
            decode_ipv4_option(&bad_type),
            Err(WireError::BadField("option type"))
        );
        let mut bad_len = buf;
        bad_len[1] = 9;
        assert_eq!(
            decode_ipv4_option(&bad_len),
            Err(WireError::BadField("option length"))
        );
        let mut bad_end = buf;
        bad_end[7] = 0xFF;
        assert_eq!(
            decode_ipv4_option(&bad_end),
            Err(WireError::BadField("option END pad"))
        );
    }

    #[test]
    fn bitfield_packing_layout() {
        // retcnt in the high nibble, flow id in bits 3..1, flags in bit 0.
        let info = FlowInfo {
            rfs: 0,
            retcnt: 0xF,
            flow_seq: 0x7,
            first: true,
        };
        let mut buf = [0u8; 7];
        encode_l3(&info, &mut buf).unwrap();
        assert_eq!(buf[6], 0b1111_1111);
        let info2 = FlowInfo {
            rfs: 0,
            retcnt: 0b1010,
            flow_seq: 0b010,
            first: false,
        };
        encode_l3(&info2, &mut buf).unwrap();
        assert_eq!(buf[6], 0b1010_0100);
    }

    proptest! {
        #[test]
        fn any_flowinfo_roundtrips(rfs: u32, retcnt in 0u8..=15, flow_seq in 0u8..=7, first: bool) {
            let info = FlowInfo { rfs, retcnt, flow_seq, first };
            let mut b1 = [0u8; 7];
            encode_l3(&info, &mut b1).unwrap();
            prop_assert_eq!(decode_l3(&b1).unwrap(), info);
            let mut b2 = [0u8; 8];
            encode_ipv4_option(&info, &mut b2).unwrap();
            prop_assert_eq!(decode_ipv4_option(&b2).unwrap(), info);
        }
    }
}
