//! The number type kernel bodies are written over, and the one place that
//! names the instruction set.
//!
//! A kernel written once over [`Real`] runs at `f64`, one element at a time,
//! and on an x86_64 host with AVX2 at `F64x4`, four consecutive elements per
//! instruction (see [`crate::typed::WideKernel`]). Each lane of an `F64x4`
//! operation is the `f64` operation on that lane, bit for bit: `+ − × ÷ √`
//! round alike in both, `abs` and `neg` touch only the sign bit, `max` makes
//! `f64::max`'s choice for NaN and ±0 operands, and only `avx2` is enabled,
//! with no `mul_add`, so nothing contracts into an FMA.
//!
//! Everything here is `#[inline(always)]`: the wide span loop runs inside
//! [`avx2`], and only what inlines into it runs with AVX2 enabled. A lane
//! operation left out of line, or a closure or `array::map` on the path, is
//! a call that moves its lanes through memory — several times slower than
//! the scalar body.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A number a kernel body is written over: `f64`, or a group of `f64` lanes.
/// Write a constant as `R::splat(c)`, in the scalar body's evaluation order.
pub trait Real:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
    + Neg<Output = Self> + AddAssign + SubAssign + Send + Sync + 'static
{
    /// `x` in every lane.
    fn splat(x: f64) -> Self;
    /// `f64::abs` in every lane.
    fn abs(self) -> Self;
    /// `f64::sqrt` in every lane.
    fn sqrt(self) -> Self;
    /// `f64::max` in every lane: `other` where `self` is NaN, else `self`
    /// where `other` is NaN or the two compare equal (±0), else the larger.
    fn max(self, other: Self) -> Self;
}

impl Real for f64 {
    #[inline(always)]
    fn splat(x: f64) -> f64 { x }
    #[inline(always)]
    fn abs(self) -> f64 { f64::abs(self) }
    #[inline(always)]
    fn sqrt(self) -> f64 { f64::sqrt(self) }
    #[inline(always)]
    fn max(self, other: f64) -> f64 { f64::max(self, other) }
}

/// How many elements a wide kernel body runs per instruction on this host:
/// 4 on x86_64 with AVX2, else 1. Detected at run time, so one build serves
/// every host.
pub fn width() -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return 4;
    }
    1
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x4::{avx2, Avx2, F64x4};

#[cfg(target_arch = "x86_64")]
mod x4 {
    use std::arch::x86_64::*;
    use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

    use super::Real;

    /// Four `f64` lanes in one AVX register.
    ///
    /// An `F64x4` exists only in a process that has seen [`super::width`]
    /// return 4: the type is private to this crate, and the crate
    /// instantiates code at it only inside [`avx2`], which the wide span
    /// loop enters after that check. Every `unsafe` below that calls an AVX
    /// intrinsic relies on that.
    #[derive(Clone, Copy)]
    pub struct F64x4(__m256d);

    macro_rules! lanewise {
        ($($op:ident $fn:ident $intrinsic:ident;)*) => {$(
            impl $op for F64x4 {
                type Output = F64x4;
                #[inline(always)]
                fn $fn(self, rhs: F64x4) -> F64x4 {
                    // SAFETY: AVX2 is present wherever an `F64x4` exists.
                    F64x4(unsafe { $intrinsic(self.0, rhs.0) })
                }
            }
        )*};
    }

    lanewise! {
        Add add _mm256_add_pd;
        Sub sub _mm256_sub_pd;
        Mul mul _mm256_mul_pd;
        Div div _mm256_div_pd;
    }

    impl AddAssign for F64x4 {
        #[inline(always)]
        fn add_assign(&mut self, rhs: F64x4) { *self = *self + rhs }
    }

    impl SubAssign for F64x4 {
        #[inline(always)]
        fn sub_assign(&mut self, rhs: F64x4) { *self = *self - rhs }
    }

    impl Neg for F64x4 {
        type Output = F64x4;
        /// The sign bit flipped, as `f64`'s `neg` (NaNs included).
        #[inline(always)]
        fn neg(self) -> F64x4 {
            // SAFETY: AVX2 is present wherever an `F64x4` exists.
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }

    impl Real for F64x4 {
        #[inline(always)]
        fn splat(x: f64) -> F64x4 {
            // SAFETY: this runs only in code instantiated at `F64x4`, which
            // runs only where AVX2 is present (see the type).
            F64x4(unsafe { _mm256_set1_pd(x) })
        }

        /// The sign bit cleared, as `f64::abs` (NaNs included).
        #[inline(always)]
        fn abs(self) -> F64x4 {
            // SAFETY: AVX2 is present wherever an `F64x4` exists.
            F64x4(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }

        #[inline(always)]
        fn sqrt(self) -> F64x4 {
            // SAFETY: AVX2 is present wherever an `F64x4` exists.
            F64x4(unsafe { _mm256_sqrt_pd(self.0) })
        }

        /// `isnan(self) ? other : (other > self ? other : self)`, which is
        /// how `f64::max` lowers on x86_64 (`maxpd(a, b)` is `a > b ? a : b`).
        #[inline(always)]
        fn max(self, other: F64x4) -> F64x4 {
            // SAFETY: AVX2 is present wherever an `F64x4` exists.
            unsafe {
                let larger = _mm256_max_pd(other.0, self.0);
                let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(self.0, self.0);
                F64x4(_mm256_blendv_pd(larger, other.0, nan))
            }
        }
    }

    impl F64x4 {
        /// The four lanes.
        #[inline(always)]
        pub fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            // SAFETY: AVX2 is present; `out` is four writable `f64`s.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }

        /// Lane `l` of each of `cols`: element `l`'s row.
        #[inline(always)]
        pub fn row<const D: usize>(cols: &[F64x4; D], l: usize) -> [f64; D] {
            let mut out = [0.0; D];
            for (o, col) in out.iter_mut().zip(cols) {
                *o = col.to_array()[l];
            }
            out
        }

        /// Lane `l` is `*at[l]`.
        ///
        /// # Safety
        /// Each pointer is valid for an `f64` read, and AVX2 is present.
        #[inline(always)]
        pub unsafe fn gather(at: [*const f64; 4]) -> F64x4 {
            // SAFETY: the caller's.
            unsafe { F64x4(_mm256_set_pd(*at[3], *at[2], *at[1], *at[0])) }
        }

        /// Lane `l` is `*at.add(l)`.
        ///
        /// # Safety
        /// `at` is valid for four `f64` reads, and AVX2 is present.
        #[inline(always)]
        pub unsafe fn load(at: *const f64) -> F64x4 {
            // SAFETY: the caller's; `loadu` takes any alignment.
            unsafe { F64x4(_mm256_loadu_pd(at)) }
        }

        /// The 4×4 transpose: lane `l` of `out[j]` is lane `j` of `m[l]`.
        #[inline(always)]
        pub fn transpose4(m: [F64x4; 4]) -> [F64x4; 4] {
            let [F64x4(a), F64x4(b), F64x4(c), F64x4(d)] = m;
            // SAFETY: AVX2 is present wherever an `F64x4` exists.
            unsafe {
                let (lo_ab, hi_ab) = (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
                let (lo_cd, hi_cd) = (_mm256_unpacklo_pd(c, d), _mm256_unpackhi_pd(c, d));
                [
                    F64x4(_mm256_permute2f128_pd::<0x20>(lo_ab, lo_cd)),
                    F64x4(_mm256_permute2f128_pd::<0x20>(hi_ab, hi_cd)),
                    F64x4(_mm256_permute2f128_pd::<0x31>(lo_ab, lo_cd)),
                    F64x4(_mm256_permute2f128_pd::<0x31>(hi_ab, hi_cd)),
                ]
            }
        }

        /// The `D`-wide rows at `rows`, transposed: lane `l` of column `j` is
        /// `*rows[l].add(j)`. Rows of 2 and 4 load whole and shuffle; other
        /// widths gather.
        ///
        /// # Safety
        /// Each `rows[l]` is valid for `D` `f64` reads, and AVX2 is present.
        #[inline(always)]
        pub unsafe fn transpose<const D: usize>(rows: [*const f64; 4]) -> [F64x4; D] {
            let [r0, r1, r2, r3] = rows;
            let mut out = [F64x4::splat(0.0); D];
            // SAFETY: the caller's; every load stays in a row's `D` values.
            unsafe {
                match D {
                    2 => {
                        let a = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(_mm_loadu_pd(r0)), _mm_loadu_pd(r2));
                        let b = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(_mm_loadu_pd(r1)), _mm_loadu_pd(r3));
                        out[0] = F64x4(_mm256_unpacklo_pd(a, b));
                        out[D - 1] = F64x4(_mm256_unpackhi_pd(a, b));
                    }
                    4 => {
                        let rows = [F64x4::load(r0), F64x4::load(r1), F64x4::load(r2), F64x4::load(r3)];
                        for (o, col) in out.iter_mut().zip(F64x4::transpose4(rows)) {
                            *o = col;
                        }
                    }
                    _ => {
                        for (j, col) in out.iter_mut().enumerate() {
                            *col = F64x4::gather([r0.add(j), r1.add(j), r2.add(j), r3.add(j)]);
                        }
                    }
                }
            }
            out
        }
    }

    /// Work that runs with AVX2 enabled: [`Avx2::run`] must be
    /// `#[inline(always)]`, so that it and everything it inlines is compiled
    /// for AVX2.
    pub trait Avx2 {
        /// The work.
        fn run(self);
    }

    /// Run `work` with AVX2 enabled.
    ///
    /// # Safety
    /// AVX2 is present: [`super::width`] returned 4.
    #[target_feature(enable = "avx2")]
    pub unsafe fn avx2<W: Avx2>(work: W) {
        work.run();
    }
}

#[cfg(test)]
#[cfg(target_arch = "x86_64")]
mod tests {
    use super::*;

    /// Every lane operation against the `f64` one, bit for bit, on every
    /// pair of operands from ±0, ±∞, NaNs of both signs and two payloads,
    /// a subnormal and values whose rounding differs between operations.
    #[test]
    fn every_lane_operation_is_the_f64_operation_bit_for_bit() {
        if width() != 4 {
            return println!("no AVX2 on this host: nothing to compare");
        }
        let odd = [0.0, -0.0, 1.0, -2.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]
            .into_iter()
            .chain([f64::from_bits(0x7ff8_0000_0000_0bad), 1e-310, 0.1, 3.0, -1e300, f64::MIN_POSITIVE]);
        let odd: Vec<f64> = odd.collect();
        let pairs: Vec<(f64, f64)> = odd.iter().flat_map(|&a| odd.iter().map(move |&b| (a, b))).collect();
        struct Check<'a>(&'a [(f64, f64)]);
        impl Avx2 for Check<'_> {
            #[inline(always)]
            fn run(self) {
                type Op = (&'static str, fn(f64, f64) -> f64, fn(F64x4, F64x4) -> F64x4);
                let ops: [Op; 8] = [
                    ("add", |a, b| a + b, |a, b| a + b),
                    ("sub", |a, b| a - b, |a, b| a - b),
                    ("mul", |a, b| a * b, |a, b| a * b),
                    ("div", |a, b| a / b, |a, b| a / b),
                    ("max", f64::max, Real::max),
                    ("neg", |a, _| -a, |a, _| -a),
                    ("abs", |a, _| a.abs(), |a, _| Real::abs(a)),
                    ("sqrt", |a, _| a.sqrt(), |a, _| Real::sqrt(a)),
                ];
                for (name, scalar, wide) in ops {
                    for four in self.0.chunks_exact(4) {
                        let (a, b) = ([0, 1, 2, 3].map(|l| four[l].0), [0, 1, 2, 3].map(|l| four[l].1));
                        // SAFETY: each pointer is to four values.
                        let got = unsafe { wide(F64x4::load(a.as_ptr()), F64x4::load(b.as_ptr())) };
                        for l in 0..4 {
                            let want = scalar(a[l], b[l]).to_bits();
                            assert_eq!(got.to_array()[l].to_bits(), want, "{name}({:?}, {:?})", a[l], b[l]);
                        }
                    }
                }
            }
        }
        // SAFETY: `width()` returned 4.
        unsafe { avx2(Check(&pairs)) };
    }

    /// Rows of every width transpose to columns lane by lane.
    #[test]
    fn rows_transpose_to_columns() {
        if width() != 4 {
            return;
        }
        fn check<const D: usize>() {
            let data: Vec<f64> = (0..64).map(|i| i as f64 + 0.5).collect();
            let rows = [3, 0, 7, 2].map(|r| data[r * D..].as_ptr());
            // SAFETY: every row has at least `D` values after it, and
            // `width()` returned 4.
            let cols = unsafe { F64x4::transpose::<D>(rows) };
            for (j, col) in cols.iter().enumerate() {
                for (l, row) in rows.iter().enumerate() {
                    // SAFETY: as above.
                    assert_eq!(col.to_array()[l], unsafe { *row.add(j) }, "D={D} col {j} lane {l}");
                }
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
    }
}
