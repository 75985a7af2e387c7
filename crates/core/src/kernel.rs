//! Fused SoA assignment kernels for the Lloyd hot path.
//!
//! The assignment step is the `O(n · k · dim)` core every experiment in the
//! paper stands on. The naive scan ([`crate::point::nearest_centroid`])
//! walks centroids one at a time in AoS order, so the compiler must
//! serialize the per-candidate accumulation. This module restructures the
//! search around the norm expansion
//!
//! ```text
//! ‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²
//! ```
//!
//! with the centroid table transposed into **coordinate-major planes**:
//! plane `d` holds coordinate `d` of *all* centroids contiguously (padded
//! to a multiple of [`LANES`]). The screen then runs `d` as the *outer*
//! loop — one broadcast of `x[d]` per plane and a contiguous
//! multiply-accumulate sweep across all centroids — so every SIMD lane
//! carries an independent accumulator chain and the loop is
//! throughput-bound instead of latency-bound. (The earlier shape, blocks
//! of 8 centroids with `d` innermost, serializes each block behind a
//! `dim`-deep FMA dependency chain.) `‖c‖²` is computed once per layout
//! (once per Lloyd iteration), `‖x‖²` once per point.
//!
//! ## Exactness: the top-2 screen and the rescue pass
//!
//! The expansion is algebraically equal to the squared distance but not
//! bit-equal in floating point, and a k-means assignment must not silently
//! flip near-ties: the differential test suite (and the paper's
//! determinism story) requires the fused kernel to make **the same
//! decision as the scalar scan on every input**. The kernel therefore
//! treats the expanded values as a *screen*, not an answer:
//!
//! 1. compute `approx_j = ‖x‖² − 2·x·c_j + ‖c_j‖²` for every centroid,
//!    tracking per SIMD lane the best value, its index and the runner-up,
//! 2. bound the worst-case disagreement between `approx_j` and the
//!    scalar-computed `sq_dist(x, c_j)` by
//!    `margin = 16 (dim + 4) ε (‖x‖² + max_j ‖c_j‖²)` — a standard
//!    summation-error bound (each of the two computations errs by at most
//!    `~(dim+2) ε` relative to magnitudes bounded by `‖x‖² + ‖c_j‖²`),
//!    widened by a safety factor,
//! 3. if the runner-up lies more than `2·margin` above the best, the
//!    screen's winner is provably the scalar's winner: return it with one
//!    exact [`crate::point::sq_dist`],
//! 4. otherwise **rescue**: recompute the exact distance for every
//!    candidate within `2·margin` of the best screened value and pick the
//!    winner among those by the scalar's own values and tie-break (lowest
//!    index).
//!
//! Any candidate outside the window is strictly worse than the winner
//! under the scalar's arithmetic, so the returned index *and* the returned
//! squared distance are bit-identical to
//! [`crate::point::nearest_centroid`]. On real data the runner-up almost
//! always clears the window (the tallies are surfaced through
//! [`KernelStats`] and the `pmkm-obs` recorder), so the exactness costs
//! one `O(dim)` recomputation per point — noise against the `O(k · dim)`
//! screen — and no second pass over the screened values.
//!
//! The same margin yields a certified lower bound on the scalar distance
//! to every *other* centroid (`runner_up − margin`), which
//! [`FusedLayout::nearest_bounded`] returns for the Lloyd skip bounds
//! (DESIGN.md §9).
//!
//! Ties and duplicate centroids are exact by construction: identical
//! centroid coordinates produce identical `approx` values and identical
//! rescued distances, and both layers break ties toward the lower index.
//! The per-centroid dot product is accumulated in ascending-`d` order in
//! both layouts, so transposing the table does not reorder the summation.
//!
//! The strategy is selected per run via [`KernelKind`] on
//! [`crate::config::LloydConfig`]; see DESIGN.md §9 for when each wins.
//!
//! This module is the crate's sole `unsafe` exception (the crate denies
//! `unsafe_code` elsewhere): the AVX2/AVX-512 screen sweeps use raw
//! `std::arch` intrinsics. Every pointer access is in bounds by
//! construction — `k_pad` is a multiple of [`LANES`] and all loads/stores
//! stay below `k_pad` — and each `#[target_feature]` function is only
//! reachable through a [`ScreenIsa`] variant constructed after
//! `is_x86_feature_detected!` confirmed the features.
#![allow(unsafe_code)]

use crate::point::sq_dist;

pub use crate::config::KernelKind;

/// Padding granularity of the centroid planes: eight f64 lanes span one
/// AVX-512 (or two AVX2, or four SSE2) vectors, so the finalize/min loop
/// can be written over fixed-size `[f64; LANES]` chunks.
pub const LANES: usize = 8;

/// Safety factor applied to the analytic FP-error bound of the norm
/// expansion (see the module docs). Loose on purpose: widening the rescue
/// window only costs a few extra exact recomputations.
const MARGIN_SCALE: f64 = 16.0;

/// Largest `‖x‖² + max_j ‖c_j‖²` at which the kernel certifies its lower
/// bound. Below it every screened value is finite (`|2·x·c| ≤ ‖x‖² + ‖c‖²`,
/// so `|approx| ≤ 2·scale`); above it the bound degrades to `0.0`.
const MAX_CERTIFIED_SCALE: f64 = f64::MAX / 16.0;

/// Work tallies of the fused kernel, reported through the observability
/// recorder when one is attached to the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Points assigned through the fused path, including the ones whose
    /// screen a Lloyd bound skipped.
    pub points: u64,
    /// Candidates whose exact distance was recomputed in the rescue pass
    /// (at least one per screened point — the screened winner itself).
    pub rescued: u64,
    /// Points whose screen was skipped because the Lloyd bounds proved the
    /// previous assignment still holds (see [`crate::lloyd`]).
    pub skipped: u64,
}

impl KernelStats {
    /// Mean rescued candidates per assigned point. `1.0` is the floor for
    /// screened points (values near it mean the screen almost always
    /// decides alone); bound-skipped points rescue nothing.
    pub fn rescues_per_point(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.rescued as f64 / self.points as f64
        }
    }
}

/// Instruction set the screen sweep dispatches to, detected once per
/// layout. The screen is a *bound*, not an answer (the rescue pass
/// re-derives exact scalar distances), so the wider paths may use FMA —
/// fused rounding only shrinks the screen's error, never the margin's
/// validity — and every path returns the same rescued result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScreenIsa {
    /// Autovectorized fallback (SSE2 on baseline x86-64 builds).
    Portable,
    /// 4-wide `__m256d` with FMA, runtime-detected.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// 8-wide `__m512d` with FMA, runtime-detected.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn detect_isa() -> ScreenIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return ScreenIsa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return ScreenIsa::Avx2Fma;
        }
    }
    ScreenIsa::Portable
}

/// Centroids laid out for the fused kernel: coordinate-major planes for
/// the vectorized screen, plus the original AoS table for the exact
/// rescue pass. Built once per Lloyd iteration (`O(k · dim)`).
#[derive(Debug, Clone)]
pub struct FusedLayout {
    dim: usize,
    k: usize,
    /// `k` rounded up to a whole number of [`LANES`]; the stride of one
    /// plane and the length of `cnorm2` / the screen scratch.
    k_pad: usize,
    /// `dim` planes of `k_pad` values each: `planes[d·k_pad + j]` is
    /// coordinate `d` of centroid `j`. Padding lanes hold zeros.
    planes: Vec<f64>,
    /// `‖c_j‖²` per centroid, padded with `+inf` so padding lanes can
    /// never win the screen.
    cnorm2: Vec<f64>,
    /// The original row-major `k × dim` table, for the rescue pass.
    aos: Vec<f64>,
    /// `max_j ‖c_j‖²`, one term of the per-point error margin.
    max_cnorm2: f64,
    isa: ScreenIsa,
}

impl FusedLayout {
    /// Transposes a flat row-major `k × dim` centroid table into
    /// coordinate-major planes. `centroids.len()` must be a non-zero
    /// multiple of `dim`.
    pub fn new(centroids: &[f64], dim: usize) -> Self {
        debug_assert!(dim > 0 && !centroids.is_empty() && centroids.len().is_multiple_of(dim));
        let k = centroids.len() / dim;
        let k_pad = k.div_ceil(LANES) * LANES;
        let mut planes = vec![0.0; dim * k_pad];
        let mut cnorm2 = vec![f64::INFINITY; k_pad];
        let mut max_cnorm2 = 0.0f64;
        for (j, c) in centroids.chunks_exact(dim).enumerate() {
            for (d, &v) in c.iter().enumerate() {
                planes[d * k_pad + j] = v;
            }
            let n2 = c.iter().map(|v| v * v).sum::<f64>();
            cnorm2[j] = n2;
            max_cnorm2 = max_cnorm2.max(n2);
        }
        Self {
            dim,
            k,
            k_pad,
            planes,
            cnorm2,
            aos: centroids.to_vec(),
            max_cnorm2,
            isa: detect_isa(),
        }
    }

    /// Label of the screen path this layout dispatches to
    /// (`"avx512f"`, `"avx2+fma"`, or `"portable"`).
    pub fn isa_label(&self) -> &'static str {
        match self.isa {
            ScreenIsa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx512 => "avx512f",
        }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Required length of the caller-provided screen scratch buffer
    /// (`k` rounded up to a whole number of [`LANES`]).
    pub fn scratch_len(&self) -> usize {
        self.k_pad
    }

    /// Nearest centroid to `x`: index and **scalar-exact** squared
    /// distance, bit-identical to [`crate::point::nearest_centroid`].
    ///
    /// `scratch` must be at least [`Self::scratch_len`] long; it holds the
    /// screened distances and carries no state between calls.
    #[inline]
    pub fn nearest(&self, x: &[f64], scratch: &mut [f64]) -> (usize, f64) {
        let mut stats = KernelStats::default();
        self.nearest_counted(x, scratch, &mut stats)
    }

    /// [`Self::nearest`] with work tallies accumulated into `stats`.
    #[inline]
    pub fn nearest_counted(
        &self,
        x: &[f64],
        scratch: &mut [f64],
        stats: &mut KernelStats,
    ) -> (usize, f64) {
        let (j, d, _) = self.nearest_bounded(x, scratch, stats);
        (j, d)
    }

    /// [`Self::nearest_counted`] plus a certified lower bound on the
    /// scalar squared distance from `x` to every *other* centroid:
    /// `sq_dist(x, c_j) ≥ lower` for every `j` but the returned index.
    /// `lower` is `0.0` when it cannot be certified (magnitudes near
    /// overflow, non-finite inputs) and `+inf` when `k == 1`.
    #[inline]
    pub fn nearest_bounded(
        &self,
        x: &[f64],
        scratch: &mut [f64],
        stats: &mut KernelStats,
    ) -> (usize, f64, f64) {
        debug_assert_eq!(x.len(), self.dim);
        debug_assert!(scratch.len() >= self.k_pad);
        let approx = &mut scratch[..self.k_pad];
        stats.points += 1;

        // --- Screen: ‖x‖² − 2·x·c + ‖c‖² for every centroid -----------
        let px2 = x.iter().map(|v| v * v).sum::<f64>();
        let top = self.screen(x, px2, approx);

        // Both the screen and the scalar sum err by at most ~(dim + 2)·ε
        // relative to ‖x‖² + ‖c‖², so `margin` bounds the gap between a
        // screened value and the scalar `sq_dist`, and 2·margin separates
        // "provably worse under scalar arithmetic" from "must check".
        let scale = px2 + self.max_cnorm2;
        let margin = MARGIN_SCALE * (self.dim as f64 + 4.0) * f64::EPSILON * scale;
        let window = top.best + 2.0 * margin;
        // Below this scale every screened value is finite, so `approx − margin`
        // really bounds the scalar distance from below (false for NaN).
        let certified = scale < MAX_CERTIFIED_SCALE;

        // --- Decided by the screen: the runner-up is outside the window,
        // so the winner is the window's only candidate. ------------------
        if top.runner_up > window && top.index < self.k {
            let j = top.index;
            let d = sq_dist(x, &self.aos[j * self.dim..(j + 1) * self.dim]);
            stats.rescued += 1;
            if d < f64::INFINITY {
                let lower = if certified { top.runner_up - margin } else { 0.0 };
                return (j, d, lower);
            }
            return self.exact_scan(x, stats);
        }

        // --- Rescue: exact distances for every candidate in the window ---
        let mut win = usize::MAX;
        let mut win_d = f64::INFINITY;
        // Smallest exact distance among the rescued non-winners.
        let mut second_d = f64::INFINITY;
        // Ascending `j` preserves the scalar tie-break. Padding lanes can
        // enter an overflowed (+inf) window, so only real centroids count.
        for j in (0..self.k).filter(|&j| approx[j] <= window) {
            let d = sq_dist(x, &self.aos[j * self.dim..(j + 1) * self.dim]);
            stats.rescued += 1;
            if d < win_d {
                second_d = win_d;
                win_d = d;
                win = j;
            } else if d < second_d {
                second_d = d;
            }
        }
        if win == usize::MAX {
            // Unreachable with finite inputs (the screen winner is always
            // inside the window), but an overflowed screen (inf/NaN approx
            // values) must degrade to the exact scan, never to a bogus index.
            return self.exact_scan(x, stats);
        }
        // Centroids outside the window screened above it, so their scalar
        // distance exceeds `window − margin`.
        let lower = if certified { second_d.min(window - margin) } else { 0.0 };
        (win, win_d, lower)
    }

    /// The exact scalar scan, for inputs whose screen overflowed. Its
    /// bound is uncertified.
    fn exact_scan(&self, x: &[f64], stats: &mut KernelStats) -> (usize, f64, f64) {
        stats.rescued += self.k as u64;
        let (j, d) = crate::point::nearest_centroid(x, &self.aos, self.dim);
        (j, d, 0.0)
    }

    /// Screen sweep alone (no rescue): fills `scratch` with the expanded
    /// values and returns the minimum. Exposed for the bench harness and
    /// diagnostics; everything else should call [`Self::nearest`].
    #[doc(hidden)]
    #[inline]
    pub fn screen_only(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        let px2 = x.iter().map(|v| v * v).sum::<f64>();
        self.screen(x, px2, &mut scratch[..self.k_pad]).best
    }

    /// Dispatches the screen sweep to the detected instruction set.
    #[inline]
    fn screen(&self, x: &[f64], px2: f64, approx: &mut [f64]) -> Top2 {
        match self.isa {
            ScreenIsa::Portable => self.screen_portable(x, px2, approx),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the variant is only constructed after
            // `is_x86_feature_detected!` confirmed the features.
            ScreenIsa::Avx2Fma => unsafe { self.screen_avx2(x, px2, approx) },
            #[cfg(target_arch = "x86_64")]
            ScreenIsa::Avx512 => unsafe { self.screen_avx512(x, px2, approx) },
        }
    }

    /// Autovectorized screen sweep: dot products accumulate plane by
    /// plane (ascending `d`) into `approx` — one broadcast of `x[d]` per
    /// plane, then a contiguous mul-add sweep whose lanes are independent
    /// accumulator chains — after which a second sweep finalizes the
    /// expansion in place and folds each lane's top two in.
    fn screen_portable(&self, x: &[f64], px2: f64, approx: &mut [f64]) -> Top2 {
        approx.fill(0.0);
        for (d, &xd) in x.iter().enumerate() {
            let plane = &self.planes[d * self.k_pad..(d + 1) * self.k_pad];
            for (a, &p) in approx.iter_mut().zip(plane) {
                *a += xd * p;
            }
        }
        // Eight independent lane tallies reduce once at the end: a serial
        // k-deep chain over the finished buffer costs more than the screen.
        let mut best = [f64::INFINITY; LANES];
        let mut index = [f64::MAX; LANES];
        let mut second = [f64::INFINITY; LANES];
        let blocks = approx.chunks_exact_mut(LANES).zip(self.cnorm2.chunks_exact(LANES));
        for (b, (out, cn)) in blocks.enumerate() {
            let out: &mut [f64; LANES] = out.try_into().expect("approx block");
            let cn: &[f64; LANES] = cn.try_into().expect("cnorm2 block");
            for l in 0..LANES {
                out[l] = px2 - 2.0 * out[l] + cn[l];
            }
            for l in 0..LANES {
                // Select form with ordered `<`: NaN never enters a tally,
                // and the loop lowers to vector compares + blends.
                let v = out[l];
                let lt = v < best[l];
                second[l] = if lt {
                    best[l]
                } else if v < second[l] {
                    v
                } else {
                    second[l]
                };
                index[l] = if lt { (b * LANES + l) as f64 } else { index[l] };
                best[l] = if lt { v } else { best[l] };
            }
        }
        reduce_top2(&best, &index, &second)
    }

    /// AVX-512 screen sweep: panels of 32 centroids (four `__m512d`
    /// accumulators, so the `dim`-deep FMA chains of four vectors
    /// interleave instead of serializing) with an 8-wide tail; `x[d]`
    /// broadcast once per plane per panel. Each lane keeps its best value,
    /// the best's index and its runner-up in registers.
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` CPU feature.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn screen_avx512(&self, x: &[f64], px2: f64, approx: &mut [f64]) -> Top2 {
        use std::arch::x86_64::*;
        let pl = self.planes.as_ptr();
        let cn = self.cnorm2.as_ptr();
        let out = approx.as_mut_ptr();
        let k_pad = self.k_pad;
        let two = _mm512_set1_pd(2.0);
        let px2v = _mm512_set1_pd(px2);
        let lane = _mm512_setr_pd(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
        let mut best = _mm512_set1_pd(f64::INFINITY);
        let mut second = _mm512_set1_pd(f64::INFINITY);
        let mut index = _mm512_set1_pd(f64::MAX);
        // Finalize `out = (px2 − 2·dot) + cn` (the portable association),
        // store it, and fold it into the lane tallies. LT_OQ is false for
        // NaN, and vminpd returns its second operand when either is NaN, so
        // a NaN never enters a tally.
        macro_rules! fold {
            ($acc:expr, $j:expr) => {{
                let j = $j;
                let t =
                    _mm512_add_pd(_mm512_fnmadd_pd(two, $acc, px2v), _mm512_loadu_pd(cn.add(j)));
                _mm512_storeu_pd(out.add(j), t);
                let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(t, best);
                second = _mm512_mask_blend_pd(lt, _mm512_min_pd(t, second), best);
                best = _mm512_mask_blend_pd(lt, best, t);
                let jv = _mm512_add_pd(lane, _mm512_set1_pd(j as f64));
                index = _mm512_mask_blend_pd(lt, index, jv);
            }};
        }
        let mut jb = 0usize;
        while jb + 32 <= k_pad {
            let mut a0 = _mm512_setzero_pd();
            let mut a1 = _mm512_setzero_pd();
            let mut a2 = _mm512_setzero_pd();
            let mut a3 = _mm512_setzero_pd();
            for (d, &xd) in x.iter().enumerate() {
                let v = _mm512_set1_pd(xd);
                let base = pl.add(d * k_pad + jb);
                a0 = _mm512_fmadd_pd(v, _mm512_loadu_pd(base), a0);
                a1 = _mm512_fmadd_pd(v, _mm512_loadu_pd(base.add(8)), a1);
                a2 = _mm512_fmadd_pd(v, _mm512_loadu_pd(base.add(16)), a2);
                a3 = _mm512_fmadd_pd(v, _mm512_loadu_pd(base.add(24)), a3);
            }
            fold!(a0, jb);
            fold!(a1, jb + 8);
            fold!(a2, jb + 16);
            fold!(a3, jb + 24);
            jb += 32;
        }
        while jb < k_pad {
            let mut a0 = _mm512_setzero_pd();
            for (d, &xd) in x.iter().enumerate() {
                let v = _mm512_set1_pd(xd);
                a0 = _mm512_fmadd_pd(v, _mm512_loadu_pd(pl.add(d * k_pad + jb)), a0);
            }
            fold!(a0, jb);
            jb += 8;
        }
        // Reduce in registers: spilling the tallies for scalar reloads
        // stalls on store forwarding and costs more than the sweep. Lanes
        // hold no NaN, so the reductions need no NaN care.
        let inf = _mm512_set1_pd(f64::INFINITY);
        let m = _mm512_reduce_min_pd(best);
        let at_min = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(best, _mm512_set1_pd(m));
        let runner_up = if at_min.count_ones() > 1 {
            m
        } else {
            _mm512_reduce_min_pd(_mm512_min_pd(_mm512_mask_blend_pd(at_min, best, inf), second))
        };
        let index =
            _mm512_reduce_min_pd(_mm512_mask_blend_pd(at_min, _mm512_set1_pd(f64::MAX), index));
        Top2 { best: m, index: index as usize, runner_up }
    }

    /// AVX2+FMA screen sweep: panels of 16 centroids (four `__m256d`
    /// accumulators) with a 4-wide tail. Same contract as
    /// [`Self::screen_avx512`].
    ///
    /// # Safety
    ///
    /// Requires the `avx2` and `fma` CPU features.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn screen_avx2(&self, x: &[f64], px2: f64, approx: &mut [f64]) -> Top2 {
        use std::arch::x86_64::*;
        let pl = self.planes.as_ptr();
        let cn = self.cnorm2.as_ptr();
        let out = approx.as_mut_ptr();
        let k_pad = self.k_pad;
        let two = _mm256_set1_pd(2.0);
        let px2v = _mm256_set1_pd(px2);
        let lane = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
        let mut best = _mm256_set1_pd(f64::INFINITY);
        let mut second = _mm256_set1_pd(f64::INFINITY);
        let mut index = _mm256_set1_pd(f64::MAX);
        macro_rules! fold {
            ($acc:expr, $j:expr) => {{
                let j = $j;
                let t =
                    _mm256_add_pd(_mm256_fnmadd_pd(two, $acc, px2v), _mm256_loadu_pd(cn.add(j)));
                _mm256_storeu_pd(out.add(j), t);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(t, best);
                second = _mm256_blendv_pd(_mm256_min_pd(t, second), best, lt);
                best = _mm256_blendv_pd(best, t, lt);
                let jv = _mm256_add_pd(lane, _mm256_set1_pd(j as f64));
                index = _mm256_blendv_pd(index, jv, lt);
            }};
        }
        let mut jb = 0usize;
        while jb + 16 <= k_pad {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for (d, &xd) in x.iter().enumerate() {
                let v = _mm256_set1_pd(xd);
                let base = pl.add(d * k_pad + jb);
                a0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(base), a0);
                a1 = _mm256_fmadd_pd(v, _mm256_loadu_pd(base.add(4)), a1);
                a2 = _mm256_fmadd_pd(v, _mm256_loadu_pd(base.add(8)), a2);
                a3 = _mm256_fmadd_pd(v, _mm256_loadu_pd(base.add(12)), a3);
            }
            fold!(a0, jb);
            fold!(a1, jb + 4);
            fold!(a2, jb + 8);
            fold!(a3, jb + 12);
            jb += 16;
        }
        while jb < k_pad {
            let mut a0 = _mm256_setzero_pd();
            for (d, &xd) in x.iter().enumerate() {
                let v = _mm256_set1_pd(xd);
                a0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(pl.add(d * k_pad + jb)), a0);
            }
            fold!(a0, jb);
            jb += 4;
        }
        // Reduce in registers, as in the AVX-512 sweep. `hmin` leaves the
        // minimum of all four lanes in every lane.
        let hmin = |v: __m256d| {
            let v = _mm256_min_pd(v, _mm256_permute2f128_pd::<1>(v, v));
            _mm256_min_pd(v, _mm256_permute_pd::<0b0101>(v))
        };
        let inf = _mm256_set1_pd(f64::INFINITY);
        let mv = hmin(best);
        let at_min = _mm256_cmp_pd::<_CMP_EQ_OQ>(best, mv);
        let runner_up = if _mm256_movemask_pd(at_min).count_ones() > 1 {
            mv
        } else {
            hmin(_mm256_min_pd(_mm256_blendv_pd(best, inf, at_min), second))
        };
        let index = hmin(_mm256_blendv_pd(_mm256_set1_pd(f64::MAX), index, at_min));
        Top2 {
            best: _mm256_cvtsd_f64(mv),
            index: _mm256_cvtsd_f64(index) as usize,
            runner_up: _mm256_cvtsd_f64(runner_up),
        }
    }
}

/// What the screen sweep found: the smallest screened value, its centroid
/// index, and the smallest screened value over all *other* centroids
/// (`+inf` when there are none). NaN values are never recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Top2 {
    best: f64,
    index: usize,
    runner_up: f64,
}

/// Folds per-lane `(best, index, runner-up)` tallies into the sweep's
/// [`Top2`]. Lanes tied on their best value keep the lower index; such a
/// tie also makes the runner-up equal the best, so the caller takes the
/// exact rescue path anyway. An untouched lane's index is `f64::MAX`,
/// which casts to `usize::MAX`.
fn reduce_top2(best: &[f64], index: &[f64], second: &[f64]) -> Top2 {
    let mut w = 0;
    for l in 1..best.len() {
        if best[l] < best[w] || (best[l] == best[w] && index[l] < index[w]) {
            w = l;
        }
    }
    let mut runner_up = second[w];
    for (l, &b) in best.iter().enumerate() {
        if l != w && b < runner_up {
            runner_up = b;
        }
    }
    Top2 { best: best[w], index: index[w] as usize, runner_up }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::nearest_centroid;
    use crate::seeding::rng_for;
    use rand::Rng;

    #[test]
    fn matches_scalar_bit_for_bit_on_random_inputs() {
        let mut rng = rng_for(21, 0);
        for _ in 0..400 {
            let dim = rng.gen_range(1usize..12);
            let k = rng.gen_range(1usize..40);
            let cents: Vec<f64> = (0..k * dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let layout = FusedLayout::new(&cents, dim);
            let mut scratch = vec![0.0; layout.scratch_len()];
            let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let naive = nearest_centroid(&x, &cents, dim);
            let fused = layout.nearest(&x, &mut scratch);
            assert_eq!(fused.0, naive.0, "index (dim={dim}, k={k})");
            assert_eq!(fused.1.to_bits(), naive.1.to_bits(), "distance bits");
        }
    }

    #[test]
    fn duplicate_centroids_tie_break_to_lowest_index() {
        // Centroids 0 and 1 are identical; 2 is the true nearest's double.
        let cents = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        let (j, d) = layout.nearest(&[1.0, 1.0], &mut scratch);
        assert_eq!((j, d), (0, 0.0));
        let naive = nearest_centroid(&[1.0, 1.0], &cents, 2);
        assert_eq!((j, d), naive);
    }

    #[test]
    fn exact_tie_between_mirrored_centroids() {
        // (0,0) is exactly equidistant from (−1,0) and (1,0); both layers
        // must settle on index 0.
        let cents = [-1.0, 0.0, 1.0, 0.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        assert_eq!(layout.nearest(&[0.0, 0.0], &mut scratch), (0, 1.0));
    }

    #[test]
    fn single_centroid_and_k_not_multiple_of_lanes() {
        for k in [1usize, 7, 8, 9, 17] {
            let cents: Vec<f64> = (0..k * 3).map(|i| i as f64 * 0.25).collect();
            let layout = FusedLayout::new(&cents, 3);
            assert_eq!(layout.k(), k);
            let mut scratch = vec![0.0; layout.scratch_len()];
            let x = [50.0, -3.0, 0.125];
            assert_eq!(layout.nearest(&x, &mut scratch), nearest_centroid(&x, &cents, 3));
        }
    }

    #[test]
    fn stats_tally_points_and_rescues() {
        let cents = [0.0, 0.0, 10.0, 10.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        let mut stats = KernelStats::default();
        for i in 0..10 {
            layout.nearest_counted(&[i as f64, 0.5], &mut scratch, &mut stats);
        }
        assert_eq!(stats.points, 10);
        // Every point rescues at least its screened winner.
        assert!(stats.rescued >= 10);
        assert!(stats.rescues_per_point() >= 1.0);
    }

    /// Every screen path this host can run, the portable one first.
    fn host_isas() -> Vec<ScreenIsa> {
        let mut isas = vec![ScreenIsa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                isas.push(ScreenIsa::Avx2Fma);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(ScreenIsa::Avx512);
            }
        }
        isas
    }

    /// Each path's top-2 screen agrees with the screened values it stored
    /// (best = the first minimum, runner-up = the minimum over every other
    /// lane), every path returns the same nearest index and distance bits,
    /// and every path's lower bound holds for every other centroid's
    /// scalar distance. Duplicate centroids and centroid-valued queries
    /// force exact ties into the mix.
    #[test]
    fn simd_and_portable_dispatch_agree() {
        let mut rng = rng_for(22, 0);
        for case in 0..400 {
            let dim = rng.gen_range(1usize..10);
            let k = rng.gen_range(1usize..70);
            let mut cents: Vec<f64> = (0..k * dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
            if case % 3 == 0 && k > 1 {
                let (from, to) = (rng.gen_range(0..k), rng.gen_range(0..k));
                cents.copy_within(from * dim..(from + 1) * dim, to * dim);
            }
            let x: Vec<f64> = if case % 5 == 0 {
                let j = rng.gen_range(0..k);
                cents[j * dim..(j + 1) * dim].to_vec()
            } else {
                (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect()
            };
            let px2 = x.iter().map(|v| v * v).sum::<f64>();
            let base = FusedLayout::new(&cents, dim);
            let mut answers = Vec::new();
            for isa in host_isas() {
                let mut layout = base.clone();
                layout.isa = isa;
                let label = layout.isa_label();
                let mut scratch = vec![0.0; layout.scratch_len()];
                let top = layout.screen(&x, px2, &mut scratch);
                let first_min = (0..scratch.len())
                    .min_by(|&a, &b| scratch[a].partial_cmp(&scratch[b]).unwrap())
                    .unwrap();
                assert_eq!(top.index, first_min, "{label}: best index");
                assert_eq!(top.best.to_bits(), scratch[first_min].to_bits(), "{label}: best");
                let runner_up = (0..scratch.len())
                    .filter(|&j| j != first_min)
                    .map(|j| scratch[j])
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(top.runner_up.to_bits(), runner_up.to_bits(), "{label}: runner-up");

                let mut stats = KernelStats::default();
                let (j, d, lower) = layout.nearest_bounded(&x, &mut scratch, &mut stats);
                for (o, c) in cents.chunks_exact(dim).enumerate().filter(|&(o, _)| o != j) {
                    assert!(sq_dist(&x, c) >= lower, "{label}: bound {lower} fails centroid {o}");
                }
                answers.push((label, j, d.to_bits()));
            }
            let (_, j0, d0) = answers[0];
            for &(label, j, d) in &answers[1..] {
                assert_eq!((j, d), (j0, d0), "{label} vs portable (dim={dim}, k={k})");
            }
        }
    }

    #[test]
    fn huge_magnitude_gaps_stay_exact() {
        // Mixed scales stress the margin: ‖c‖² spans 24 orders of magnitude.
        let cents = [1e-6, 0.0, 1e6, 0.0, -1e6, 0.0];
        let layout = FusedLayout::new(&cents, 2);
        let mut scratch = vec![0.0; layout.scratch_len()];
        for x in [[0.0, 0.0], [5e5, 1.0], [-5e5 - 1.0, 0.0], [1e-6, 0.0]] {
            assert_eq!(layout.nearest(&x, &mut scratch), nearest_centroid(&x, &cents, 2));
        }
    }
}
