//! Matrix multiplication: one register-tiled kernel, compiled once per ISA
//! tier, behind every entry point.
//!
//! These are the FLOP-dominant kernels of transformer training — the CPU
//! stand-in for the GPU GEMMs that dominate the paper's workloads. All
//! variants accumulate in `f32` over `f32` inputs (the engine converts
//! fp16 storage to f32 before compute, as tensor cores do). A call runs
//! on the calling thread only: each rank is a thread, and the ranks
//! already occupy the cores.
//!
//! **Arithmetic contract.** Every output element is the sum of its `k`
//! products taken in increasing `p`, starting from `+0.0`; the finished
//! sum is then stored ([`Store::Set`]) or added to C ([`Store::Add`]).
//! No term is skipped, reassociated or fused, so a non-finite product
//! always reaches the output (`0 · Inf` is NaN in every variant), and the
//! result is bit-for-bit that of [`reference`]. Because tiling and packing
//! change only *where* operands are read from, never the order in which
//! one element's products are added, every bitwise gate in the repo
//! (stage/overlap/offload/backend loss equality, serving token equality)
//! is independent of the tile sizes and of the tier below.
//!
//! **Structure.** [`gemm`] packs `op(A)` into `MR`-row panels and `op(B)`
//! into `NR`-column panels (both `k`-major, zero-padded at the edges, held
//! in grow-only thread-local buffers), then runs one microkernel per
//! `MR×NR` tile of C: its `MR·NR` accumulators stay in registers for the
//! whole `k` loop and each step is `MR` broadcasts against one contiguous
//! `NR`-wide row of the B panel, which LLVM turns into SIMD multiplies and
//! adds. Whether an operand is stored transposed matters only to the pack
//! routine (and to the unpacked kernel below, which reads operands where
//! they lie); the strides let callers multiply sub-matrices (one attention
//! head inside `qkv`) in place.
//!
//! **Tiers.** That kernel is written once, generic over its `MR×NR` tile,
//! and compiled for a ladder of ISA tiers, each at the tile that measured
//! fastest for it: AVX-512F, AVX2, and the portable 2×16 baseline that
//! every target runs. [`gemm`] runs the widest tier the CPU reports,
//! detected once per process; [`kernel`] names it. A tier changes only the
//! vector width LLVM may use. The body is the same safe `*s += av * bv`
//! loop, there are no intrinsics, and Rust never contracts a multiply and
//! an add into an FMA (its float operations carry no contraction flag,
//! whatever the target features), so every tier returns the same bits. A
//! wide tier is a `#[target_feature]` function, and the only `unsafe` is
//! the call to it after its feature check. The whole tile loop must be
//! inlined into that function. A closure the function passes to
//! `LocalKey::with` is compiled without the feature unless LLVM inlines
//! `with` too, and a loop there spills its accumulators, so `gemm`
//! borrows the thread-local panels and hands them to the tier.
//!
//! For `m < MR` (the single-row GEMV of incremental decoding) packing B
//! would cost as much as the multiply, so those rows go to an unpacked
//! kernel, compiled for the same tier, that keeps 16 independent in-order
//! dot products in flight.

use std::cell::RefCell;
use std::sync::OnceLock;

/// What happens to a finished sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// `c = sum`.
    Set,
    /// `c += sum`.
    Add,
}

/// A strided matrix operand: element `(r, c)` is `data[r·rs + c·cs]`, one
/// of the two strides being 1.
#[derive(Clone, Copy, Debug)]
pub struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// Used as stored: rows are `ld` apart, element `(r, c)` is `data[r·ld + c]`.
    pub fn n(data: &'a [f32], ld: usize) -> Self {
        Mat { data, rs: ld, cs: 1 }
    }

    /// Used transposed: element `(r, c)` is `data[c·ld + r]`.
    pub fn t(data: &'a [f32], ld: usize) -> Self {
        Mat { data, rs: 1, cs: ld }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// Whether `len` elements hold `rows×cols` elements `rs` and `cs` apart.
fn covers(len: usize, rows: usize, cols: usize, rs: usize, cs: usize) -> bool {
    rows == 0 || cols == 0 || (rows - 1) * rs + (cols - 1) * cs < len
}

/// Packed A and B panels.
type Panels = (Vec<f32>, Vec<f32>);

thread_local! {
    /// Packed A and B panels, grown on demand and kept for the thread's life.
    static PANELS: RefCell<Panels> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One [`gemm`] call.
#[derive(Clone, Copy)]
struct Call<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: Mat<'a>,
    b: Mat<'a>,
    ldc: usize,
    store: Store,
}

/// One rung of the ISA ladder: a tile, and [`tiled`] at that tile compiled
/// with the tier's target features.
struct Tier {
    isa: &'static str,
    mr: usize,
    nr: usize,
    /// Whether this CPU can execute `entry`.
    detect: fn() -> bool,
    /// Callable once `detect` has returned true.
    entry: unsafe fn(&mut Panels, Call<'_>, &mut [f32]),
}

/// Widest first; the baseline, last, runs on every target.
static TIERS: &[Tier] = &[
    #[cfg(target_arch = "x86_64")]
    Tier { isa: "avx512f", mr: 4, nr: 32, detect: || is_x86_feature_detected!("avx512f"), entry: avx512f::<4, 32> },
    #[cfg(target_arch = "x86_64")]
    Tier { isa: "avx2", mr: 4, nr: 16, detect: || is_x86_feature_detected!("avx2"), entry: avx2::<4, 16> },
    Tier { isa: "baseline", mr: 2, nr: 16, detect: || true, entry: baseline::<2, 16> },
];

/// The tiers this CPU can execute, widest first.
fn runnable() -> impl Iterator<Item = &'static Tier> {
    TIERS.iter().filter(|tier| (tier.detect)())
}

/// The tier [`gemm`] runs: the widest runnable one, chosen once.
fn selected() -> &'static Tier {
    static SELECTED: OnceLock<&'static Tier> = OnceLock::new();
    SELECTED.get_or_init(|| runnable().next().expect("the baseline tier runs everywhere"))
}

/// The kernel [`gemm`] runs on this CPU, as `"<isa> <MR>x<NR>"` — for
/// example `"avx2 4x16"`. Every kernel returns the same bits.
pub fn kernel() -> String {
    let tier = selected();
    format!("{} {}x{}", tier.isa, tier.mr, tier.nr)
}

/// `c[m×n] (=|+=) op(a)[m×k] · op(b)[k×n]`, C's rows `ldc` apart. Elements
/// of `c` outside the `m×n` window are not touched.
///
/// # Panics
/// Panics if an operand is too short for its dimensions and strides.
#[allow(clippy::too_many_arguments)]
pub fn gemm(m: usize, k: usize, n: usize, a: Mat<'_>, b: Mat<'_>, c: &mut [f32], ldc: usize, store: Store) {
    // SAFETY: `selected` returns a tier from `runnable`, whose `detect`
    // (`is_x86_feature_detected!` for a wide tier) held on this CPU.
    unsafe { gemm_on(selected(), Call { m, k, n, a, b, ldc, store }, c) }
}

/// [`gemm`] on `tier`.
///
/// # Safety
/// `tier.detect` must have returned true on this CPU.
unsafe fn gemm_on(tier: &Tier, call: Call<'_>, c: &mut [f32]) {
    let Call { m, k, n, a, b, ldc, store } = call;
    assert!(covers(a.data.len(), m, k, a.rs, a.cs), "gemm: a is too short");
    assert!(covers(b.data.len(), k, n, b.rs, b.cs), "gemm: b is too short");
    assert!(ldc >= n && covers(c.len(), m, n, ldc, 1), "gemm: c is too short");
    if k == 0 {
        // Empty sums: nothing to read, pack or multiply.
        if store == Store::Set {
            (0..m).for_each(|i| c[i * ldc..][..n].fill(0.0));
        }
        return;
    }
    let entry = tier.entry;
    PANELS.with_borrow_mut(|panels| {
        // SAFETY: the caller checked `tier.detect`, the feature test for
        // what `entry` is compiled with.
        unsafe { entry(panels, call, c) }
    });
}

/// [`tiled`] compiled for AVX-512F.
///
/// # Safety
/// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512f<const MR: usize, const NR: usize>(panels: &mut Panels, call: Call<'_>, c: &mut [f32]) {
    tiled::<MR, NR>(panels, call, c);
}

/// [`tiled`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<const MR: usize, const NR: usize>(panels: &mut Panels, call: Call<'_>, c: &mut [f32]) {
    tiled::<MR, NR>(panels, call, c);
}

/// [`tiled`] with the target's baseline features.
fn baseline<const MR: usize, const NR: usize>(panels: &mut Panels, call: Call<'_>, c: &mut [f32]) {
    tiled::<MR, NR>(panels, call, c);
}

/// Outputs the unpacked `m < MR` kernel keeps in flight, on every tier: its
/// column pointers must stay in registers (32 or 64 lanes measured ≈ 3×
/// slower on the AVX-512F tier).
const FEW_ROWS: usize = 16;

/// One call at an `MR×NR` tile: rows `m < MR` unpacked, otherwise pack and
/// run the microkernel over every tile. Always inlined, so it is compiled
/// with the features of the tier entry that calls it.
#[inline(always)]
fn tiled<const MR: usize, const NR: usize>((ap, bp): &mut Panels, call: Call<'_>, c: &mut [f32]) {
    let Call { m, k, n, a, b, ldc, store } = call;
    if m < MR {
        return (0..m).for_each(|i| few_rows_kernel::<FEW_ROWS>(k, a, i, b, &mut c[i * ldc..][..n], store));
    }
    let (a_len, b_len) = (m.div_ceil(MR) * MR * k, n.div_ceil(NR) * NR * k);
    ap.resize(ap.len().max(a_len), 0.0);
    bp.resize(bp.len().max(b_len), 0.0);
    pack::<MR>(&mut ap[..a_len], a.data, a.rs, a.cs, m, k);
    pack::<NR>(&mut bp[..b_len], b.data, b.cs, b.rs, n, k);
    // A B panel stays in L1 while every A panel streams past it.
    for (j0, b_panel) in (0..n).step_by(NR).zip(bp.chunks(k * NR)) {
        let nr = NR.min(n - j0);
        for (i0, a_panel) in (0..m).step_by(MR).zip(ap.chunks(k * MR)) {
            let acc = microkernel::<MR, NR>(a_panel, b_panel);
            for (r, sums) in acc.iter().enumerate().take(m - i0) {
                store_row(&mut c[(i0 + r) * ldc + j0..][..nr], sums, store);
            }
        }
    }
}

/// The one multiply loop: `acc[r][c] = Σ_p a_panel[p][r] · b_panel[p][c]`,
/// `p` increasing, from `+0.0`.
#[inline(always)]
fn microkernel<const MR: usize, const NR: usize>(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0_f32; NR]; MR];
    for (a, b) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let a: &[f32; MR] = a.try_into().expect("chunks_exact(MR)");
        let b: &[f32; NR] = b.try_into().expect("chunks_exact(NR)");
        for (sums, &av) in acc.iter_mut().zip(a) {
            for (s, &bv) in sums.iter_mut().zip(b) {
                *s += av * bv;
            }
        }
    }
    acc
}

#[inline(always)]
fn store_row<const NR: usize>(c_row: &mut [f32], sums: &[f32; NR], store: Store) {
    match store {
        Store::Set => c_row.copy_from_slice(&sums[..c_row.len()]),
        Store::Add => c_row.iter_mut().zip(sums).for_each(|(cv, s)| *cv += s),
    }
}

/// Packs `count` length-`k` vectors (rows of `op(A)` or columns of
/// `op(B)`) into `W`-wide `k`-major panels: `dst[panel][p][lane]`, lanes
/// past `count` zeroed. Vector `v`'s element `p` is
/// `src[v·v_stride + p·k_stride]`, one of the strides being 1.
#[inline(always)]
fn pack<const W: usize>(dst: &mut [f32], src: &[f32], v_stride: usize, k_stride: usize, count: usize, k: usize) {
    for (v0, panel) in (0..count).step_by(W).zip(dst.chunks_exact_mut(k * W)) {
        let w = W.min(count - v0);
        if k_stride == 1 {
            for lane in 0..w {
                let vector = &src[(v0 + lane) * v_stride..][..k];
                for (d, &s) in panel[lane..].iter_mut().step_by(W).zip(vector) {
                    *d = s;
                }
            }
            if w < W {
                panel.chunks_exact_mut(W).for_each(|row| row[w..].fill(0.0));
            }
        } else {
            for (row, src_row) in panel.chunks_exact_mut(W).zip(src[v0..].chunks(k_stride)) {
                row[..w].copy_from_slice(&src_row[..w]);
                row[w..].fill(0.0);
            }
        }
    }
}

/// Row `i` of [`gemm`] for `m < MR`: no packing; the row is produced `NR`
/// outputs at a time, every output its own in-order sum, so `NR`
/// independent add chains hide the add latency a lone dot product exposes.
#[inline(always)]
fn few_rows_kernel<const NR: usize>(k: usize, a: Mat<'_>, i: usize, b: Mat<'_>, c_row: &mut [f32], store: Store) {
    for (j0, c_row) in (0..).step_by(NR).zip(c_row.chunks_mut(NR)) {
        let nr = c_row.len();
        let mut acc = [0.0_f32; NR];
        if b.rs == 1 {
            // Column j of op(B) is a contiguous run; lanes past `nr`
            // repeat the last column and are dropped by the store.
            let cols: [&[f32]; NR] = std::array::from_fn(|lane| &b.data[(j0 + lane.min(nr - 1)) * b.cs..][..k]);
            for p in 0..k {
                let av = a.at(i, p);
                for (s, col) in acc.iter_mut().zip(&cols) {
                    *s += av * col[p];
                }
            }
        } else {
            for p in 0..k {
                let av = a.at(i, p);
                for (s, bv) in acc.iter_mut().zip(&b.data[p * b.rs + j0..][..nr]) {
                    *s += av * bv;
                }
            }
        }
        store_row(c_row, &acc, store);
    }
}

/// `c[m×n] = a[m×k] · b[k×n]` (row-major).
///
/// # Panics
/// Panics if slice lengths are inconsistent with the dimensions.
pub fn sgemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "sgemm: a has wrong length");
    assert_eq!(b.len(), k * n, "sgemm: b has wrong length");
    assert_eq!(c.len(), m * n, "sgemm: c has wrong length");
    gemm(m, k, n, Mat::n(a, k), Mat::n(b, n), c, n, Store::Set);
}

/// `c[m×n] = a[m×k] · b[n×k]^T` — B is stored row-major as `n×k` and used
/// transposed: the layout of `Y = X · W^T` with W stored `[out, in]`.
pub fn sgemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "sgemm_nt: a has wrong length");
    assert_eq!(b.len(), n * k, "sgemm_nt: b has wrong length");
    assert_eq!(c.len(), m * n, "sgemm_nt: c has wrong length");
    gemm(m, k, n, Mat::n(a, k), Mat::t(b, k), c, n, Store::Set);
}

/// `c[m×n] = a[k×m]^T · b[k×n]` — A stored row-major as `k×m`, used
/// transposed: the layout of weight gradients `dW = X^T · dY`.
pub fn sgemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "sgemm_tn: a has wrong length");
    assert_eq!(b.len(), k * n, "sgemm_tn: b has wrong length");
    assert_eq!(c.len(), m * n, "sgemm_tn: c has wrong length");
    gemm(m, k, n, Mat::t(a, m), Mat::n(b, n), c, n, Store::Set);
}

/// The arithmetic contract as a plain triple loop: the `m×n` sums of
/// `op(a) · op(b)`, row-major, which tests and `bench_matmul` compare every
/// kernel against bit for bit.
pub fn reference(m: usize, k: usize, n: usize, a: Mat<'_>, b: Mat<'_>) -> Vec<f32> {
    let mut sums = vec![0.0_f32; m * n];
    for (idx, sum) in sums.iter_mut().enumerate() {
        for p in 0..k {
            *sum += a.at(idx / n, p) * b.at(p, idx % n);
        }
    }
    sums
}

/// Out-of-place transpose of a row-major `rows×cols` matrix.
pub fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose: src has wrong length");
    assert_eq!(dst.len(), rows * cols, "transpose: dst has wrong length");
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 7 % 13) as f32 - 6.0) * scale).collect()
    }

    /// [`gemm`] on `tier`, which must run on this CPU.
    fn gemm_at(tier: &Tier, call: Call<'_>, c: &mut [f32]) {
        assert!((tier.detect)(), "{} does not run on this CPU", tier.isa);
        // SAFETY: `tier.detect` held just above.
        unsafe { gemm_on(tier, call, c) }
    }

    /// The widest `(MR, NR)` of any tier, runnable here or not.
    fn widest_tile() -> (usize, usize) {
        TIERS.iter().fold((0, 0), |(mr, nr), tier| (mr.max(tier.mr), nr.max(tier.nr)))
    }

    /// A `rows×cols` operand with entry `(r, c)` a function of `(r, c,
    /// salt)`, stored for `Mat::n` or (`transposed`) `Mat::t` with a
    /// leading dimension `pad` past the tightest. Every element outside the
    /// window is NaN, so a kernel that reads one poisons its output.
    fn operand(rows: usize, cols: usize, transposed: bool, pad: usize, salt: usize) -> (Vec<f32>, usize) {
        let (outer, inner) = if transposed { (cols, rows) } else { (rows, cols) };
        let ld = inner + pad;
        let mut data = vec![f32::NAN; outer * ld];
        for r in 0..rows {
            for c in 0..cols {
                let at = if transposed { c * ld + r } else { r * ld + c };
                data[at] = ((r * 31 + c * 17 + salt) % 23) as f32 * 0.1 - 1.1;
            }
        }
        (data, ld)
    }

    fn view(data: &[f32], ld: usize, transposed: bool) -> Mat<'_> {
        if transposed {
            Mat::t(data, ld)
        } else {
            Mat::n(data, ld)
        }
    }

    #[test]
    fn every_tier_is_bitwise_the_reference_on_every_layout_window_and_edge() {
        // Two full tiles of the widest tile plus ragged edges, `m < MR` and
        // `k = 0` on every tier; operands and C in padded windows.
        let (mr, nr) = widest_tile();
        let ms = [1, 2, 3, 4, 5, 6, 7, 2 * mr, 3 * mr + 1];
        let ns = [1, 15, 16, 17, 33, nr, nr + 1, 2 * nr + 1];
        let shapes = ms.iter().flat_map(|&m| [0, 1, 7, 16].map(|k| (m, k)));
        let tiers: Vec<&Tier> = runnable().collect();
        for (m, k, n) in shapes.flat_map(|(m, k)| ns.map(|n| (m, k, n))) {
            let pad = (m + k + n) % 3;
            // The three wrappers' layouts: (A transposed, B transposed).
            for (ta, tb) in [(false, false), (false, true), (true, false)] {
                let (a, lda) = operand(m, k, ta, pad, 1);
                let (b, ldb) = operand(k, n, tb, pad, 5);
                let (av, bv) = (view(&a, lda, ta), view(&b, ldb, tb));
                let want = reference(m, k, n, av, bv);
                let ldc = n + pad + 1;
                for (tier, store) in tiers.iter().flat_map(|&tier| [Store::Set, Store::Add].map(|s| (tier, s))) {
                    let mut c = vec![0.25_f32; m * ldc];
                    gemm_at(tier, Call { m, k, n, a: av, b: bv, ldc, store }, &mut c);
                    for (idx, got) in c.iter().enumerate() {
                        let (i, j) = (idx / ldc, idx % ldc);
                        let expect = match (j < n, store) {
                            (false, _) => 0.25,
                            (true, Store::Set) => want[i * n + j],
                            (true, Store::Add) => 0.25 + want[i * n + j],
                        };
                        assert_eq!(
                            got.to_bits(),
                            expect.to_bits(),
                            "{} ({m},{k},{n}) ta={ta} tb={tb} {store:?} at ({i},{j}): {got} vs {expect}",
                            tier.isa
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_times_non_finite_reaches_the_output_in_every_variant() {
        // Row 0 of A is exactly 0 where B holds an Inf (p = 1) and a NaN
        // (p = 2): IEEE says both products are NaN. A kernel that skips
        // zero coefficients would hide an overflowed gradient here.
        let (mr, nr) = widest_tile();
        for tier in runnable() {
            for &(m, k, n) in &[(1, 4, 3), (3, 4, 3), (9, 4, 20), (3 * mr + 1, 4, 2 * nr + 1)] {
                let mut a = vec![1.0_f32; m * k];
                a[..k].fill(0.0);
                let mut b = vec![1.0_f32; k * n];
                b[n] = f32::INFINITY; // (p = 1, j = 0)
                b[2 * n + 1] = f32::NAN; // (p = 2, j = 1)
                let (mut a_t, mut b_t) = (vec![0.0; m * k], vec![0.0; k * n]);
                transpose(&a, &mut a_t, m, k);
                transpose(&b, &mut b_t, k, n);
                let variants = [
                    ("sgemm", Mat::n(&a, k), Mat::n(&b, n)),
                    ("sgemm_nt", Mat::n(&a, k), Mat::t(&b_t, k)),
                    ("sgemm_tn", Mat::t(&a_t, m), Mat::n(&b, n)),
                ];
                for (name, av, bv) in variants {
                    for store in [Store::Set, Store::Add] {
                        let mut c = vec![0.5_f32; m * n];
                        gemm_at(tier, Call { m, k, n, a: av, b: bv, ldc: n, store }, &mut c);
                        let isa = tier.isa;
                        assert!(c[0].is_nan() && c[1].is_nan(), "{isa} {name} {store:?} ({m},{k},{n}): {:?}", &c[..2]);
                        assert!(c[2].is_finite(), "{isa} {name} {store:?}: clean column poisoned");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_runs_the_widest_tier_this_cpu_reports() {
        assert!(std::ptr::eq(selected(), runnable().next().expect("a runnable tier")));
        assert_eq!(TIERS.last().map(|tier| tier.isa), Some("baseline"));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_ne!(selected().isa, "baseline", "an AVX2 host fell back to the baseline tier");
        }
        let tier = selected();
        assert_eq!(kernel(), format!("{} {}x{}", tier.isa, tier.mr, tier.nr));
    }

    #[test]
    fn transpose_involution() {
        let src = seq(12, 1.0);
        let mut t = vec![0.0; 12];
        let mut back = vec![0.0; 12];
        transpose(&src, &mut t, 3, 4);
        transpose(&t, &mut back, 4, 3);
        assert_eq!(src, back);
    }
}
