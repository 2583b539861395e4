//! Datatypes and reduction operators.
//!
//! Payloads travel as raw bytes; typed views are provided by the [`MpiType`]
//! trait (the analogue of `MPI_Datatype` for the small set of types the
//! evaluation applications need) and reductions interpret byte payloads
//! element-wise according to a [`DType`].

use crate::error::{MpiError, MpiResult};

/// Element type of a reduction payload (the analogue of `MPI_Datatype` as
/// used by `MPI_Reduce`-family calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned 8-bit integer.
    U8,
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single-precision float.
    F32,
    /// IEEE-754 double-precision float.
    F64,
}

impl DType {
    /// Width of one element in bytes.
    pub fn width(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::I32 | DType::U32 | DType::F32 => 4,
            DType::I64 | DType::U64 | DType::F64 => 8,
        }
    }

    /// Validate that `payload` is a whole number of elements.
    pub fn check(self, payload: &[u8]) -> MpiResult<usize> {
        let w = self.width();
        if !payload.len().is_multiple_of(w) {
            return Err(MpiError::BadPayload(format!(
                "payload of {} bytes is not a multiple of {w}-byte {:?}",
                payload.len(),
                self
            )));
        }
        Ok(payload.len() / w)
    }
}

/// Reduction operators (the analogue of `MPI_Op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum (wrapping for integers).
    Sum,
    /// Element-wise product (wrapping for integers).
    Prod,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Logical AND (nonzero = true); result elements are 0 or 1.
    Land,
    /// Logical OR (nonzero = true); result elements are 0 or 1.
    Lor,
    /// Bitwise AND.
    Band,
    /// Bitwise OR.
    Bor,
}

/// `b` if it compares below `a`, else `a`: the accumulator stays unless
/// the comparison holds, so a NaN on either side leaves it in place.
fn lower<T: PartialOrd>(a: T, b: T) -> T {
    if b < a {
        b
    } else {
        a
    }
}

/// [`lower`], for `Max`.
fn upper<T: PartialOrd>(a: T, b: T) -> T {
    if b > a {
        b
    } else {
        a
    }
}

impl ReduceOp {
    /// Combine `other` into `acc`, element-wise: `acc[i] = op(acc[i], other[i])`.
    ///
    /// Both slices must be the same length and a whole number of `dtype`
    /// elements. Reductions are applied in ascending-rank order by the
    /// collectives, so floating-point results are deterministic for a given
    /// communicator size.
    pub fn combine(
        self,
        dtype: DType,
        acc: &mut [u8],
        other: &[u8],
    ) -> MpiResult<()> {
        if acc.len() != other.len() {
            return Err(MpiError::BadPayload(format!(
                "reduce length mismatch: {} vs {} bytes",
                acc.len(),
                other.len()
            )));
        }
        dtype.check(acc)?;
        // One fixed-width bulk loop per (dtype, operator): both are matched
        // before the loop, never inside it.
        macro_rules! each {
            ($t:ty, |$a:ident, $b:ident| $r:expr) => {{
                let (acc, _) = acc.as_chunks_mut::<{ size_of::<$t>() }>();
                let (other, _) = other.as_chunks::<{ size_of::<$t>() }>();
                for (x, y) in acc.iter_mut().zip(other) {
                    let $a = <$t>::from_le_bytes(*x);
                    let $b = <$t>::from_le_bytes(*y);
                    let r: $t = $r;
                    *x = r.to_le_bytes();
                }
            }};
        }
        macro_rules! int {
            ($t:ty) => {
                match self {
                    ReduceOp::Sum => each!($t, |a, b| a.wrapping_add(b)),
                    ReduceOp::Prod => each!($t, |a, b| a.wrapping_mul(b)),
                    ReduceOp::Min => each!($t, |a, b| lower(a, b)),
                    ReduceOp::Max => each!($t, |a, b| upper(a, b)),
                    ReduceOp::Land => {
                        each!($t, |a, b| (a != 0 && b != 0) as $t)
                    }
                    ReduceOp::Lor => {
                        each!($t, |a, b| (a != 0 || b != 0) as $t)
                    }
                    ReduceOp::Band => each!($t, |a, b| a & b),
                    ReduceOp::Bor => each!($t, |a, b| a | b),
                }
            };
        }
        // The logical operators read a float as "nonzero" (NaN is true,
        // `-0.0` is false) and write 1.0 / 0.0.
        macro_rules! float {
            ($t:ty) => {
                match self {
                    ReduceOp::Sum => each!($t, |a, b| a + b),
                    ReduceOp::Prod => each!($t, |a, b| a * b),
                    ReduceOp::Min => each!($t, |a, b| lower(a, b)),
                    ReduceOp::Max => each!($t, |a, b| upper(a, b)),
                    ReduceOp::Land => {
                        each!($t, |a, b| (a != 0.0 && b != 0.0) as u8 as $t)
                    }
                    ReduceOp::Lor => {
                        each!($t, |a, b| (a != 0.0 || b != 0.0) as u8 as $t)
                    }
                    ReduceOp::Band | ReduceOp::Bor => {
                        return Err(MpiError::BadPayload(
                            "bitwise reduction on floating-point dtype".into(),
                        ))
                    }
                }
            };
        }
        match dtype {
            DType::U8 => int!(u8),
            DType::I32 => int!(i32),
            DType::U32 => int!(u32),
            DType::I64 => int!(i64),
            DType::U64 => int!(u64),
            DType::F32 => float!(f32),
            DType::F64 => float!(f64),
        }
        Ok(())
    }
}

/// Rust types that map onto a [`DType`] and can be shipped as payloads.
///
/// This is the typed convenience layer; the wire format is always
/// little-endian bytes, so blobs are stable across save/restore. Each
/// conversion is one fixed-width bulk loop over `[u8; W]` chunks, which on
/// a little-endian target compiles to a memcpy.
pub trait MpiType: Copy + Send + 'static {
    /// The wire dtype for this Rust type.
    const DTYPE: DType;

    /// Encode a slice of values to bytes.
    fn slice_to_bytes(vals: &[Self]) -> Vec<u8>;

    /// Decode a byte payload onto the end of `out`; errors, leaving `out`
    /// as it was, if the length is ragged.
    fn extend_from_bytes(out: &mut Vec<Self>, bytes: &[u8]) -> MpiResult<()>;

    /// Decode a byte payload into values; errors if the length is ragged.
    fn bytes_to_vec(bytes: &[u8]) -> MpiResult<Vec<Self>> {
        let mut out = Vec::new();
        Self::extend_from_bytes(&mut out, bytes)?;
        Ok(out)
    }
}

macro_rules! impl_mpi_type {
    ($t:ty, $dt:expr) => {
        impl MpiType for $t {
            const DTYPE: DType = $dt;
            fn slice_to_bytes(vals: &[Self]) -> Vec<u8> {
                vals.iter()
                    .map(|v| v.to_le_bytes())
                    .collect::<Vec<_>>()
                    .into_flattened()
            }
            fn extend_from_bytes(
                out: &mut Vec<Self>,
                bytes: &[u8],
            ) -> MpiResult<()> {
                Self::DTYPE.check(bytes)?;
                let (chunks, _) = bytes.as_chunks::<{ size_of::<$t>() }>();
                out.extend(chunks.iter().map(|c| <$t>::from_le_bytes(*c)));
                Ok(())
            }
        }
    };
}

impl_mpi_type!(u8, DType::U8);
impl_mpi_type!(i32, DType::I32);
impl_mpi_type!(u32, DType::U32);
impl_mpi_type!(i64, DType::I64);
impl_mpi_type!(u64, DType::U64);
impl_mpi_type!(f32, DType::F32);
impl_mpi_type!(f64, DType::F64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_check() {
        assert_eq!(DType::F64.width(), 8);
        assert_eq!(DType::U8.width(), 1);
        assert_eq!(DType::F64.check(&[0u8; 24]).unwrap(), 3);
        assert!(DType::F64.check(&[0u8; 20]).is_err());
    }

    #[test]
    fn sum_f64() {
        let mut acc = f64::slice_to_bytes(&[1.0, 2.0, 3.0]);
        let other = f64::slice_to_bytes(&[10.0, 20.0, 30.0]);
        ReduceOp::Sum.combine(DType::F64, &mut acc, &other).unwrap();
        assert_eq!(f64::bytes_to_vec(&acc).unwrap(), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn min_max_i64() {
        let mut acc = i64::slice_to_bytes(&[5, -2]);
        let other = i64::slice_to_bytes(&[3, 7]);
        ReduceOp::Min.combine(DType::I64, &mut acc, &other).unwrap();
        assert_eq!(i64::bytes_to_vec(&acc).unwrap(), vec![3, -2]);
        let mut acc = i64::slice_to_bytes(&[5, -2]);
        ReduceOp::Max.combine(DType::I64, &mut acc, &other).unwrap();
        assert_eq!(i64::bytes_to_vec(&acc).unwrap(), vec![5, 7]);
    }

    #[test]
    fn prod_u32_wraps() {
        let mut acc = u32::slice_to_bytes(&[u32::MAX]);
        let other = u32::slice_to_bytes(&[2]);
        ReduceOp::Prod
            .combine(DType::U32, &mut acc, &other)
            .unwrap();
        assert_eq!(
            u32::bytes_to_vec(&acc).unwrap(),
            vec![u32::MAX.wrapping_mul(2)]
        );
    }

    #[test]
    fn logical_ops() {
        let mut acc = u8::slice_to_bytes(&[1, 0, 5]);
        let other = u8::slice_to_bytes(&[1, 0, 0]);
        ReduceOp::Land.combine(DType::U8, &mut acc, &other).unwrap();
        assert_eq!(u8::bytes_to_vec(&acc).unwrap(), vec![1, 0, 0]);

        let mut acc = u8::slice_to_bytes(&[1, 0, 5]);
        ReduceOp::Lor.combine(DType::U8, &mut acc, &other).unwrap();
        assert_eq!(u8::bytes_to_vec(&acc).unwrap(), vec![1, 0, 1]);
    }

    #[test]
    fn logical_ops_on_f64() {
        let mut acc = f64::slice_to_bytes(&[1.5, 0.0]);
        let other = f64::slice_to_bytes(&[2.0, 0.0]);
        ReduceOp::Land
            .combine(DType::F64, &mut acc, &other)
            .unwrap();
        assert_eq!(f64::bytes_to_vec(&acc).unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn bitwise_ops() {
        let mut acc = u64::slice_to_bytes(&[0b1100]);
        let other = u64::slice_to_bytes(&[0b1010]);
        ReduceOp::Band
            .combine(DType::U64, &mut acc, &other)
            .unwrap();
        assert_eq!(u64::bytes_to_vec(&acc).unwrap(), vec![0b1000]);
        let mut acc = u64::slice_to_bytes(&[0b1100]);
        ReduceOp::Bor.combine(DType::U64, &mut acc, &other).unwrap();
        assert_eq!(u64::bytes_to_vec(&acc).unwrap(), vec![0b1110]);
    }

    #[test]
    fn bitwise_on_float_is_an_error() {
        let mut acc = f64::slice_to_bytes(&[1.0]);
        let other = f64::slice_to_bytes(&[2.0]);
        assert!(ReduceOp::Band
            .combine(DType::F64, &mut acc, &other)
            .is_err());
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let mut acc = vec![0u8; 8];
        assert!(ReduceOp::Sum
            .combine(DType::F64, &mut acc, &[0u8; 16])
            .is_err());
    }

    /// For one type: the wire format is the per-element `to_le_bytes`
    /// concatenation, decoding gives the same bits back (compared as
    /// bytes, so NaN payloads and `-0.0` count), appending leaves what
    /// was there, and every length that is not a whole number of
    /// elements is refused with the output untouched.
    macro_rules! wire_format_case {
        ($t:ty, $vals:expr) => {{
            let vals: &[$t] = &$vals;
            let bits = |xs: &[$t]| -> Vec<_> {
                xs.iter().map(|v| v.to_le_bytes()).collect()
            };
            for n in 0..=vals.len() {
                let xs = &vals[..n];
                let bytes = <$t>::slice_to_bytes(xs);
                assert_eq!(bytes, bits(xs).concat());
                let mut back = <$t>::bytes_to_vec(&bytes).unwrap();
                assert_eq!(bits(&back), bits(xs));
                <$t>::extend_from_bytes(&mut back, &bytes).unwrap();
                assert_eq!(bits(&back), [bits(xs), bits(xs)].concat());
            }
            let bytes = <$t>::slice_to_bytes(vals);
            for len in (0..bytes.len()).filter(|l| l % size_of::<$t>() != 0) {
                let ragged = &bytes[..len];
                assert!(matches!(
                    <$t>::bytes_to_vec(ragged),
                    Err(MpiError::BadPayload(_))
                ));
                let mut out = vec![vals[0]];
                assert!(<$t>::extend_from_bytes(&mut out, ragged).is_err());
                assert_eq!(bits(&out), bits(&vals[..1]));
            }
        }};
    }

    #[test]
    fn typed_round_trips() {
        wire_format_case!(u8, [0, 1, 0x5A, u8::MAX]);
        wire_format_case!(i32, [i32::MIN, -1, 0, 1, i32::MAX]);
        wire_format_case!(u32, [0, 1, 0xDEAD_BEEF, u32::MAX]);
        wire_format_case!(i64, [i64::MIN, -1, 0, 1, i64::MAX]);
        wire_format_case!(u64, [0, 1, 0x0123_4567_89AB_CDEF, u64::MAX]);
        // A quiet NaN with a payload, a signalling one with the sign set,
        // -0.0 and 0.0; then MIN, MAX, the smallest subnormal and -inf.
        let f32s = [0x7FC0_1234, 0xFF80_0001, 1 << 31, 0];
        wire_format_case!(f32, f32s.map(f32::from_bits));
        wire_format_case!(f32, [f32::MIN, f32::MAX, 1e-45, -f32::INFINITY]);
        let f64s = [0x7FF8 << 48 | 0xBEEF, 0xFFF0 << 48 | 1, 1 << 63, 0];
        wire_format_case!(f64, f64s.map(f64::from_bits));
        wire_format_case!(f64, [f64::MIN, f64::MAX, 5e-324, -f64::INFINITY]);
    }

    /// `Min`/`Max` replace the accumulator only when the comparison
    /// holds, the logical operators read a float as "nonzero", integer
    /// sums wrap, and a wide integer is nonzero in any byte.
    #[test]
    fn combine_edge_cases_are_pinned() {
        use ReduceOp::*;
        let check = |op: ReduceOp,
                     acc: &[f64],
                     other: &[f64],
                     want: &[f64]| {
            let mut bytes = f64::slice_to_bytes(acc);
            op.combine(DType::F64, &mut bytes, &f64::slice_to_bytes(other))
                .unwrap();
            assert_eq!(bytes, f64::slice_to_bytes(want), "{op:?}");
        };
        let nan = f64::from_bits(0x7FF8_0000_0000_BEEF);
        let kept = [nan, 1.0, -0.0, 0.0];
        check(Min, &kept, &[1.0, nan, 0.0, -0.0], &kept);
        check(Max, &kept, &[1.0, nan, 0.0, -0.0], &kept);
        check(Land, &[nan, -0.0, 3.0], &[2.0, 2.0, 0.0], &[1.0, 0.0, 0.0]);
        check(Lor, &[-0.0, 0.0, 3.0], &[0.0, nan, 0.0], &[0.0, 1.0, 1.0]);
        check(Prod, &[-0.0, 0.5], &[3.0, 4.0], &[-0.0, 2.0]);

        let mut acc = i32::slice_to_bytes(&[i32::MAX, i32::MIN]);
        Sum.combine(DType::I32, &mut acc, &i32::slice_to_bytes(&[1, -1]))
            .unwrap();
        assert_eq!(i32::bytes_to_vec(&acc).unwrap(), [i32::MIN, i32::MAX]);
        let mut acc = i64::slice_to_bytes(&[1 << 40, 0, 1 << 40]);
        Land.combine(DType::I64, &mut acc, &i64::slice_to_bytes(&[-1, -1, 0]))
            .unwrap();
        assert_eq!(i64::bytes_to_vec(&acc).unwrap(), [1, 0, 0]);
    }
}
