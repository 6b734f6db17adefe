//! Deterministic synthetic turbulence standing in for the DNS archive.
//!
//! The real database stores direct numerical simulation of forced isotropic
//! turbulence. We cannot ship 27 TB of DNS output, so the field is synthesized
//! as a sum of incompressible Fourier modes whose amplitudes follow a
//! Kolmogorov −5/3 inertial-range energy spectrum and whose phases advect at
//! the eddy-turnover frequency of their wavenumber. The construction is
//! standard *kinematic simulation* (Fung et al., JFM 1992): it is not a
//! Navier–Stokes solution, but it is smooth, statistically stationary,
//! divergence-free and multi-scale — everything the query kernels (Lagrange
//! interpolation, gradients, particle tracking) and the scheduler care about.
//!
//! Every value is a pure function of `(position, time, seed)`, so any atom can
//! be materialized independently, deterministically and in parallel.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One Fourier mode of the kinematic field.
#[derive(Debug, Clone, Copy)]
struct Mode {
    /// Wavevector (rad per voxel).
    k: [f64; 3],
    /// Velocity direction, unit length, perpendicular to `k`
    /// (incompressibility).
    dir: [f64; 3],
    /// Amplitude following the −5/3 spectrum.
    amp: f64,
    /// Temporal frequency ~ eddy turnover rate of this scale.
    omega: f64,
    /// Random phase.
    phase: f64,
}

/// A synthetic, incompressible, time-evolving velocity + pressure field.
#[derive(Debug, Clone)]
pub struct SyntheticField {
    modes: Vec<Mode>,
    grid_side: f64,
    /// The constructor's inputs, which determine every mode.
    key: FieldKey,
}

/// `(seed, grid_side, mode count)`: two fields with equal keys are the same
/// field.
type FieldKey = (u64, u32, usize);

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f64; 3]) -> f64 {
    (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt()
}

impl SyntheticField {
    /// Default mode count: enough scales for a visibly multi-scale field while
    /// keeping atom materialization cheap.
    pub const DEFAULT_MODES: usize = 48;

    /// Builds a field with [`Self::DEFAULT_MODES`] modes.
    pub fn new(seed: u64, grid_side: u32) -> Self {
        Self::with_modes(seed, grid_side, Self::DEFAULT_MODES)
    }

    /// Builds a field with an explicit number of Fourier modes.
    pub fn with_modes(seed: u64, grid_side: u32, n_modes: usize) -> Self {
        assert!(n_modes > 0, "need at least one mode");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let l = grid_side as f64;
        // Integer mode numbers log-spaced from the box scale (n = 1) to
        // ~8-voxel eddies (n = L/8). Snapping wavevectors to integer multiples
        // of 2π/L makes the field exactly periodic with the grid — the ghost
        // shells and cross-boundary stencils depend on this.
        let n_max = (grid_side as f64 / 8.0).max(2.0);
        let mut modes = Vec::with_capacity(n_modes);
        for i in 0..n_modes {
            let frac = i as f64 / (n_modes - 1).max(1) as f64;
            let n_mag = n_max.powf(frac); // 1 .. n_max, log-spaced
                                          // Random integer wavevector with |n| ≈ n_mag.
            let n_int = loop {
                let v = [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ];
                let nv = norm(v);
                if nv < 1e-3 {
                    continue;
                }
                let cand = [
                    (v[0] / nv * n_mag).round(),
                    (v[1] / nv * n_mag).round(),
                    (v[2] / nv * n_mag).round(),
                ];
                if norm(cand) > 0.5 {
                    break cand;
                }
            };
            let two_pi_over_l = 2.0 * std::f64::consts::PI / l;
            let k = [
                n_int[0] * two_pi_over_l,
                n_int[1] * two_pi_over_l,
                n_int[2] * two_pi_over_l,
            ];
            let k_mag = norm(k);
            let kdir = [k[0] / k_mag, k[1] / k_mag, k[2] / k_mag];
            // Velocity direction perpendicular to k (∇·u = 0 per mode).
            let dir = loop {
                let v = [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ];
                let c = cross(kdir, v);
                let n = norm(c);
                if n > 1e-3 {
                    break [c[0] / n, c[1] / n, c[2] / n];
                }
            };
            // E(k) ~ k^-5/3  =>  per-mode amplitude ~ sqrt(E(k) dk) ~ k^-5/6
            // (log spacing makes dk ~ k, giving k^(-5/6+1/2); we fold the
            // constant into a single normalization below).
            let amp = k_mag.powf(-5.0 / 6.0);
            // Eddy turnover frequency: ω(k) ~ k^(2/3) (Kolmogorov scaling).
            let omega = 2.0 * k_mag.powf(2.0 / 3.0) * rng.gen_range(0.5..1.5);
            let phase = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            modes.push(Mode {
                k,
                dir,
                amp,
                omega,
                phase,
            });
        }
        // Normalize to O(1) RMS velocity.
        let sum_sq: f64 = modes.iter().map(|m| m.amp * m.amp * 0.5).sum();
        let scale = 1.0 / sum_sq.sqrt();
        for m in &mut modes {
            m.amp *= scale;
        }
        SyntheticField {
            modes,
            grid_side: grid_side as f64,
            key: (seed, grid_side, n_modes),
        }
    }

    /// Velocity vector at continuous voxel position `p` and time `t` seconds.
    /// The field is periodic with the grid side.
    pub fn velocity(&self, p: [f64; 3], t: f64) -> [f64; 3] {
        let mut u = [0.0f64; 3];
        for m in &self.modes {
            let arg = m.k[0] * p[0] + m.k[1] * p[1] + m.k[2] * p[2] + m.omega * t + m.phase;
            let c = m.amp * arg.cos();
            u[0] += c * m.dir[0];
            u[1] += c * m.dir[1];
            u[2] += c * m.dir[2];
        }
        u
    }

    /// Pressure-like scalar at `p`, `t`: minus half the local kinetic energy
    /// fluctuation, a standard kinematic-simulation surrogate.
    pub fn pressure(&self, p: [f64; 3], t: f64) -> f64 {
        self.velocity_pressure(p, t).1
    }

    /// Velocity and pressure in one mode sweep. Pressure is derived from the
    /// velocity vector, so evaluating both separately pays the trigonometric
    /// mode sum twice; this returns the exact values of [`Self::velocity`]
    /// and [`Self::pressure`] (bitwise — same operations on the same inputs)
    /// at half the cost. It is [`FillWorkspace::fill`]'s fallback and the
    /// reference its tests compare against.
    pub fn velocity_pressure(&self, p: [f64; 3], t: f64) -> ([f64; 3], f64) {
        let u = self.velocity(p, t);
        (u, kinetic_pressure(u))
    }

    /// Analytic velocity gradient tensor ∂uᵢ/∂xⱼ at `p`, `t` — used to verify
    /// the finite-difference kernels against ground truth.
    pub fn velocity_gradient(&self, p: [f64; 3], t: f64) -> [[f64; 3]; 3] {
        let mut g = [[0.0f64; 3]; 3];
        for m in &self.modes {
            let arg = m.k[0] * p[0] + m.k[1] * p[1] + m.k[2] * p[2] + m.omega * t + m.phase;
            let s = -m.amp * arg.sin();
            for (i, gi) in g.iter_mut().enumerate() {
                for (j, gij) in gi.iter_mut().enumerate() {
                    *gij += s * m.dir[i] * m.k[j];
                }
            }
        }
        g
    }

    /// The periodic box side in voxels.
    pub fn grid_side(&self) -> f64 {
        self.grid_side
    }

    /// Number of Fourier modes.
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }
}

/// `ε = 2⁻⁵³`, the relative rounding error of one `f64` operation.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Pressure surrogate from a velocity vector: minus half its kinetic energy.
fn kinetic_pressure(u: [f64; 3]) -> f64 {
    -0.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
}

/// True when every real within `d` of `v` rounds to the same `f32` bits.
/// `f64 → f32` rounding is monotone, so checking the two ends suffices; the
/// rounding of `v ± d` itself is covered by the bounds' constants.
fn rounds_stably(v: f64, d: f64) -> bool {
    ((v - d) as f32).to_bits() == ((v + d) as f32).to_bits()
}

/// Bound on `|p − p_direct|` for the pressure `p` derived from a separable
/// velocity `u` whose components are each within `delta` of the direct ones.
/// `|Σ uᵢ² − Σ u'ᵢ²| ≤ δ·(2‖u‖₁ + 3δ)`, halved by the `−½`; each evaluation
/// of the three-square sum rounds by at most `3ε·|p|`, and the ends of
/// `p ± δₚ` by `ε·|p|` more: `δₚ = (‖u‖₁ + 2δ)·δ + 10ε·|p|`, with margin
/// for the second-order terms.
fn pressure_bound(u: [f64; 3], p: f64, delta: f64) -> f64 {
    let l1 = u[0].abs() + u[1].abs() + u[2].abs();
    (l1 + 2.0 * delta) * delta + 10.0 * UNIT_ROUNDOFF * p.abs()
}

/// Per-mode `(cos, sin)` tables of one block's axis coordinates, and the
/// velocity error bound of the separable sum they feed.
///
/// **Error bound.** Let `ε = 2⁻⁵³`, `M` the mode count and, per mode,
/// `Aₘ = |kx|·X + |ky|·Y + |kz|·Z + |ωₘt| + |φₘ|`, where `X, Y, Z` are the
/// largest `|coordinate|` on each axis. Both evaluations form the same
/// rounded products `k·x`, `k·y`, `k·z`, `ωt`; measure each against the
/// exact sum `θ` of those products. `cos` and `sin` are taken to be within
/// one ulp (`≤ 2ε` absolute on `[−1, 1]`), and `cos` is 1-Lipschitz.
///
/// * Direct: four additions round the angle by `≤ 4ε·Aₘ`, then `cos`
///   adds `2ε`.
/// * Separable: the z angle `kz·z + ωt + φ` rounds by `≤ 2ε·Aₘ`; each of
///   the three table entries is within `√2·2ε` of its unit phasor; the
///   y·z product and the x-row real part each round by `≤ √5·ε` (Brent,
///   Percival & Zimmermann's bound for complex multiplication without
///   FMA).
///
/// So the two cosines differ by `≤ ε·(6Aₘ + 14.96)`. Multiplying by `ampₘ`
/// and by `dir[i]` (`|dir[i]| ≤ 1`) rounds each side by `ε·ampₘ` twice
/// more: `ε·ampₘ·(6Aₘ + 18.96)` per mode term. The `M` additions into the
/// running sum round each side by `ε·|partial sum| ≤ ε·Σₘ ampₘ`, and the
/// ends of `v ± δ` by `ε·Σₘ ampₘ` each. Altogether
///
/// `δ = ε · Σₘ ampₘ · (6Aₘ + 2M + 24)`,
///
/// where rounding `20.96` up to `24` absorbs every second-order term
/// (each is `O(ε·Aₘ·M)` relative, far below 1 for any grid this field
/// models). The property test `block_fill_stays_within_its_error_bound`
/// checks the bound on geometries up to `DbConfig::paper_sample`.
struct BlockTables<'a> {
    modes: &'a [Mode],
    /// `cos`/`sin` of `kx·x`, in blocks of [`LANES`] coordinates.
    x: &'a AxisTable<LANES>,
    /// `cos`/`sin` of `ky·y` per grid coordinate.
    y: &'a CoordTable,
    /// The block's y coordinates.
    ys: &'a [u32],
    /// `cos`/`sin` of `kz·z + ωt + φ`, one coordinate per block.
    z: &'a AxisTable<1>,
    /// The bound `δ` on every velocity component's distance to the direct
    /// evaluation.
    delta: f64,
}

/// Voxels of one x-row accumulated together: four voxels × three
/// components stay in registers across the whole mode loop.
const LANES: usize = 4;

/// `(cos, sin)` of one angle per (mode, coordinate), laid out
/// `[coordinate block][mode][lane]` so that one block's mode loop reads
/// contiguous memory. The last block is padded with coordinate 0.
#[derive(Debug, Default)]
struct AxisTable<const N: usize> {
    entries: Vec<([f64; N], [f64; N])>,
}

impl<const N: usize> AxisTable<N> {
    /// Refills the table over `coords`, taking the `(cos, sin)` of
    /// coordinate `c` and mode `m` from `phasor(c, m)`.
    fn rebuild(&mut self, modes: usize, coords: &[u32], phasor: impl Fn(u32, usize) -> (f64, f64)) {
        self.entries.clear();
        for block in coords.chunks(N) {
            for m in 0..modes {
                let (mut c, mut s) = ([1.0; N], [0.0; N]);
                for (l, &x) in block.iter().enumerate() {
                    (c[l], s[l]) = phasor(x, m);
                }
                self.entries.push((c, s));
            }
        }
    }

    /// The per-mode entries of coordinate block `b`.
    fn block(&self, b: usize, modes: usize) -> &[([f64; N], [f64; N])] {
        &self.entries[b * modes..(b + 1) * modes]
    }
}

/// `(cos, sin)` of `k[axis]·c` per integer grid coordinate `c` and mode,
/// laid out `[coordinate][mode]`. A coordinate's entries are computed the
/// first time a block touches it and kept for every later block: they do
/// not depend on time.
#[derive(Debug, Default)]
struct CoordTable {
    entries: Vec<([f64; 1], [f64; 1])>,
    filled: Vec<bool>,
}

impl CoordTable {
    /// Forgets every entry and sizes the table for `coords` coordinates.
    fn reset(&mut self, coords: usize, modes: usize) {
        self.filled.clear();
        self.filled.resize(coords, false);
        self.entries.clear();
        self.entries.resize(coords * modes, ([1.0], [0.0]));
    }

    /// Computes coordinate `c`'s entries unless an earlier block did.
    fn touch(&mut self, modes: &[Mode], axis: usize, c: u32) {
        let c = c as usize;
        if !self.filled[c] {
            let entries = &mut self.entries[c * modes.len()..(c + 1) * modes.len()];
            for (e, m) in entries.iter_mut().zip(modes) {
                let (s, co) = (m.k[axis] * c as f64).sin_cos();
                *e = ([co], [s]);
            }
            self.filled[c] = true;
        }
    }

    /// The per-mode entries of coordinate `c`.
    fn coord(&self, c: u32, modes: usize) -> &[([f64; 1], [f64; 1])] {
        let c = c as usize;
        debug_assert!(self.filled[c], "coordinate {c} was never touched");
        &self.entries[c * modes..(c + 1) * modes]
    }
}

/// Reusable state for filling blocks of one [`SyntheticField`] at a time:
/// the phasor tables blocks share, and the fill's scratch.
///
/// * The x and y tables hold `(cos, sin)` of `kx·x` and `ky·y` per integer
///   grid coordinate and mode. A coordinate is computed when a block first
///   touches it; nothing is built before the first fill.
/// * The z table `kz·z + ωt + φ` depends on time, so it is memoized for
///   one block, keyed by the block's exact z coordinates and `t.to_bits()`.
///   Consecutive atoms in Morton order come in z-pairs, so a batch hits the
///   memo on about half of its fills.
///
/// Every entry is bitwise the value a fresh table holds — the same rounded
/// angle through the same `sin_cos` — so a fill through a warm workspace
/// equals a fresh one bit for bit. A workspace used with another field
/// drops its tables first. Once the tables and scratch have grown to a
/// block's size, a fill allocates nothing.
#[derive(Debug, Default)]
pub struct FillWorkspace {
    tables: Tables,
    /// Per-mode y·z phasors of the current x-row.
    yz: Vec<(f64, f64)>,
    /// Separable velocity of the current x-row, padded to [`LANES`].
    row: Vec<[f64; 3]>,
}

/// The tables of [`FillWorkspace`].
#[derive(Debug, Default)]
struct Tables {
    /// The field the tables were computed for.
    field: Option<FieldKey>,
    x: CoordTable,
    y: CoordTable,
    /// The current block's integer coordinates per axis.
    axes: [Vec<u32>; 3],
    /// The current block's x phasors, regrouped for the row loop.
    x_block: AxisTable<LANES>,
    /// `kz·z + ωt + φ` over `z_coords` at the time with bits `z_t`.
    z: AxisTable<1>,
    z_coords: Vec<u32>,
    /// `None` until the z table holds a block.
    z_t: Option<u64>,
    /// Times the z table was rebuilt (memo misses).
    z_builds: u64,
}

impl Tables {
    /// Points the tables at the block `axes` of `field` at time `t`:
    /// records the coordinates, computes the x and y coordinates no earlier
    /// block touched, regroups the x phasors, and rebuilds the z table
    /// unless it already holds these z coordinates at `t`.
    fn prepare<I: IntoIterator<Item = u32>>(
        &mut self,
        field: &SyntheticField,
        axes: [I; 3],
        t: f64,
    ) {
        let modes = field.modes.as_slice();
        let nm = modes.len();
        if self.field != Some(field.key) {
            let side = field.key.1 as usize;
            self.x.reset(side, nm);
            self.y.reset(side, nm);
            self.z_t = None;
            self.field = Some(field.key);
        }
        for (axis, coords) in self.axes.iter_mut().zip(axes) {
            axis.clear();
            axis.extend(coords);
        }
        let [xs, ys, zs] = &self.axes;
        for &x in xs {
            self.x.touch(modes, 0, x);
        }
        for &y in ys {
            self.y.touch(modes, 1, y);
        }
        let x = &self.x;
        self.x_block.rebuild(nm, xs, |c, m| {
            let ([cos], [sin]) = x.coord(c, nm)[m];
            (cos, sin)
        });
        if self.z_t != Some(t.to_bits()) || self.z_coords != *zs {
            self.z.rebuild(nm, zs, |z, m| {
                let m = &modes[m];
                let (s, c) = (m.k[2] * z as f64 + m.omega * t + m.phase).sin_cos();
                (c, s)
            });
            self.z_coords.clone_from(zs);
            self.z_t = Some(t.to_bits());
            self.z_builds += 1;
        }
    }

    /// The prepared block's tables and its bound `δ`.
    fn view<'a>(&'a self, field: &'a SyntheticField, t: f64) -> BlockTables<'a> {
        let modes = field.modes.as_slice();
        let extent = self
            .axes
            .each_ref()
            .map(|a| a.iter().fold(0.0f64, |acc, &c| acc.max(c as f64)));
        let n = modes.len() as f64;
        let delta = UNIT_ROUNDOFF
            * modes
                .iter()
                .map(|m| {
                    let a = m.k[0].abs() * extent[0]
                        + m.k[1].abs() * extent[1]
                        + m.k[2].abs() * extent[2]
                        + (m.omega * t).abs()
                        + m.phase.abs();
                    m.amp * (6.0 * a + 2.0 * n + 24.0)
                })
                .sum::<f64>();
        BlockTables {
            modes,
            x: &self.x_block,
            y: &self.y,
            ys: &self.axes[1],
            z: &self.z,
            delta,
        }
    }
}

impl FillWorkspace {
    /// An empty workspace; its tables grow on the first fill.
    pub fn new() -> Self {
        Self::default()
    }

    /// Velocity and pressure of every voxel of the tensor grid
    /// `xs × ys × zs` (`axes = [xs, ys, zs]`, integer grid coordinates in
    /// `[0, grid_side)`) at time `t`, rounded to `f32` into `out`: the four
    /// planes `[vx, vy, vz, p]` one after another, each in z→y→x order.
    /// Returns the number of voxels that took the fallback.
    ///
    /// Every stored value is bitwise the `f32` rounding of
    /// [`SyntheticField::velocity_pressure`] at that voxel, but the mode
    /// sum is evaluated separably. `cos(kx·x + ky·y + kz·z + ωt + φ)` is the
    /// real part of `e^{i·kx·x} · e^{i·ky·y} · e^{i·(kz·z + ωt + φ)}`, so
    /// the fill takes `cos`/`sin` once per mode and axis coordinate (shared
    /// across blocks, see [`FillWorkspace`]), forms the y·z product once per
    /// mode and x-row, and leaves only multiply-adds per voxel — in
    /// `velocity`'s mode order with its operations (`amp · cos`, then
    /// `u[i] += c · dir[i]`).
    ///
    /// The separable value differs from the direct angle sum in its last
    /// bits, so each voxel is guarded: its four `f64` outputs carry a bound
    /// `δ` on their distance to the direct evaluation (derived on
    /// `BlockTables`), and a voxel whose interval `v ± δ` does not round to
    /// a single `f32` is recomputed with
    /// [`SyntheticField::velocity_pressure`]. The payload is therefore
    /// identical to direct evaluation by construction; the fallback fires
    /// on a few voxels in ten thousand.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not four times the block's voxel count long, or
    /// a coordinate is outside the field's grid.
    // lint: hotpath
    pub fn fill<I: IntoIterator<Item = u32>>(
        &mut self,
        field: &SyntheticField,
        axes: [I; 3],
        t: f64,
        out: &mut [f32],
    ) -> usize {
        self.tables.prepare(field, axes, t);
        let tables = self.tables.view(field, t);
        let delta = tables.delta;
        let [xs, ys, zs] = &self.tables.axes;
        let vol = xs.len() * ys.len() * zs.len();
        assert_eq!(out.len(), 4 * vol, "output is not four planes of the block");
        let (vx, rest) = out.split_at_mut(vol);
        let (vy, rest) = rest.split_at_mut(vol);
        let (vz, p) = rest.split_at_mut(vol);
        let mut planes = [vx, vy, vz, p];
        self.yz.resize(field.modes.len(), (0.0, 0.0));
        self.row.resize(xs.len().next_multiple_of(LANES), [0.0; 3]);
        let mut fallbacks = 0;
        let mut i = 0;
        for (iz, &z) in zs.iter().enumerate() {
            for (iy, &y) in ys.iter().enumerate() {
                tables.row(iy, iz, &mut self.yz, &mut self.row);
                for (&u, &x) in self.row.iter().zip(xs) {
                    let p = kinetic_pressure(u);
                    let bounds = [delta, delta, delta, pressure_bound(u, p, delta)];
                    let mut v = [u[0], u[1], u[2], p];
                    if !v.iter().zip(bounds).all(|(&v, d)| rounds_stably(v, d)) {
                        fallbacks += 1;
                        let (u, p) = field.velocity_pressure([x, y, z].map(f64::from), t);
                        v = [u[0], u[1], u[2], p];
                    }
                    for (plane, v) in planes.iter_mut().zip(v) {
                        plane[i] = v as f32;
                    }
                    i += 1;
                }
            }
        }
        fallbacks
    }
}

impl BlockTables<'_> {
    /// Separable velocity of the x-row `(iy, iz)` into `u`, one `[ux, uy, uz]`
    /// per voxel, padded to a multiple of [`LANES`]. `yz` is scratch for the
    /// row's per-mode y·z phasors. Each voxel accumulates its modes in order.
    fn row(&self, iy: usize, iz: usize, yz: &mut [(f64, f64)], u: &mut [[f64; 3]]) {
        let nm = self.modes.len();
        let yz_tables = self
            .y
            .coord(self.ys[iy], nm)
            .iter()
            .zip(self.z.block(iz, nm));
        for (p, (([cy], [sy]), ([cz], [sz]))) in yz.iter_mut().zip(yz_tables) {
            *p = (cy * cz - sy * sz, sy * cz + cy * sz);
        }
        for (b, out) in u.chunks_exact_mut(LANES).enumerate() {
            let x = self.x.block(b, nm);
            let mut acc = [[0.0f64; LANES]; 3];
            for ((m, &(cyz, syz)), (cx, sx)) in self.modes.iter().zip(&*yz).zip(x) {
                for l in 0..LANES {
                    let c = m.amp * (cx[l] * cyz - sx[l] * syz);
                    acc[0][l] += c * m.dir[0];
                    acc[1][l] += c * m.dir[1];
                    acc[2][l] += c * m.dir[2];
                }
            }
            for (l, v) in out.iter_mut().enumerate() {
                *v = [acc[0][l], acc[1][l], acc[2][l]];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::AosAtom;
    use crate::{AtomData, DbConfig};
    use jaws_morton::AtomId;
    use proptest::prelude::*;

    fn field() -> SyntheticField {
        SyntheticField::with_modes(7, 64, 24)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticField::new(1, 64);
        let b = SyntheticField::new(1, 64);
        let c = SyntheticField::new(2, 64);
        let p = [3.7, 12.1, 40.0];
        assert_eq!(a.velocity(p, 0.01), b.velocity(p, 0.01));
        assert_ne!(a.velocity(p, 0.01), c.velocity(p, 0.01));
    }

    #[test]
    fn rms_velocity_is_order_one() {
        let f = field();
        let mut sum_sq = 0.0;
        let mut n = 0u32;
        for x in (0..64).step_by(8) {
            for y in (0..64).step_by(8) {
                for z in (0..64).step_by(8) {
                    let u = f.velocity([x as f64, y as f64, z as f64], 0.0);
                    sum_sq += u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
                    n += 1;
                }
            }
        }
        let rms = (sum_sq / n as f64).sqrt();
        assert!((0.2..5.0).contains(&rms), "rms velocity {rms} not O(1)");
    }

    #[test]
    fn field_is_divergence_free_analytically() {
        // Per-mode incompressibility: trace of the analytic gradient is ~0.
        let f = field();
        for &p in &[[1.0, 2.0, 3.0], [30.5, 14.2, 55.9], [63.0, 0.1, 31.4]] {
            let g = f.velocity_gradient(p, 0.005);
            let div = g[0][0] + g[1][1] + g[2][2];
            assert!(div.abs() < 1e-9, "divergence {div} at {p:?}");
        }
    }

    #[test]
    fn gradient_matches_numerical_differentiation() {
        let f = field();
        let p = [20.3, 41.7, 9.2];
        let t = 0.004;
        let g = f.velocity_gradient(p, t);
        let h = 1e-5;
        for j in 0..3 {
            let mut pp = p;
            let mut pm = p;
            pp[j] += h;
            pm[j] -= h;
            let up = f.velocity(pp, t);
            let um = f.velocity(pm, t);
            for i in 0..3 {
                let fd = (up[i] - um[i]) / (2.0 * h);
                assert!(
                    (fd - g[i][j]).abs() < 1e-5,
                    "d u{i}/d x{j}: fd {fd} vs analytic {}",
                    g[i][j]
                );
            }
        }
    }

    #[test]
    fn field_evolves_in_time() {
        let f = field();
        let p = [10.0, 10.0, 10.0];
        let u0 = f.velocity(p, 0.0);
        let u1 = f.velocity(p, 0.5);
        assert_ne!(u0, u1, "time-frozen field");
    }

    #[test]
    fn fused_velocity_pressure_is_bitwise_identical_to_separate_calls() {
        let f = field();
        for &p in &[[0.0, 0.0, 0.0], [3.7, 12.1, 40.0], [63.9, 0.1, 31.4]] {
            for &t in &[0.0, 0.004, 0.5] {
                let (u, pr) = f.velocity_pressure(p, t);
                let u_sep = f.velocity(p, t);
                let pr_sep = f.pressure(p, t);
                for i in 0..3 {
                    assert_eq!(u[i].to_bits(), u_sep[i].to_bits());
                }
                assert_eq!(pr.to_bits(), pr_sep.to_bits());
            }
        }
    }

    #[test]
    fn pressure_is_negative_semidefinite() {
        let f = field();
        for x in 0..10 {
            let p = f.pressure([x as f64 * 5.0, 7.0, 3.0], 0.0);
            assert!(p <= 0.0);
        }
    }

    #[test]
    fn field_is_exactly_periodic_with_the_grid() {
        let f = field(); // grid_side = 64
        let l = 64.0;
        for &p in &[[0.3, 7.7, 50.1], [63.9, 0.0, 1.0]] {
            let u0 = f.velocity(p, 0.02);
            for shift in [[l, 0.0, 0.0], [0.0, -l, 0.0], [0.0, 0.0, l], [l, l, -l]] {
                let q = [p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]];
                let u1 = f.velocity(q, 0.02);
                for i in 0..3 {
                    assert!(
                        (u0[i] - u1[i]).abs() < 1e-9,
                        "not periodic at {p:?} + {shift:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn larger_scales_carry_more_energy() {
        // Sample the spectrum: the first (largest-scale) mode amplitude must
        // exceed the last (smallest-scale) one under the -5/3 law.
        let f = field();
        assert!(f.modes.first().unwrap().amp > f.modes.last().unwrap().amp);
    }

    #[test]
    fn fallback_voxels_are_bitwise_the_direct_evaluation() {
        // Atom (t = 1, x = 1, y = 2, z = 1) of `DbConfig::small_synthetic`
        // takes the fallback, and at its local voxel (3, 20, 2) the
        // unguarded separable value rounds to a different f32 than the
        // direct evaluation: the guard is what keeps this payload exact.
        let cfg = DbConfig::small_synthetic();
        let field = SyntheticField::new(cfg.seed, cfg.grid_side);
        let id = AtomId::from_coords(1, 1, 2, 1);
        let t = cfg.dt;
        let (side, ghost) = (cfg.atom_side as i64, cfg.ghost as i64);
        let axes = [1i64, 2, 1].map(|a| {
            (a * side - ghost..(a + 1) * side + ghost)
                .map(|g| g.rem_euclid(cfg.grid_side as i64) as u32)
                .collect::<Vec<_>>()
        });

        let [ix, iy, iz] = [3, 20, 2].map(|l: i64| (l + ghost) as usize);
        let mut ws = FillWorkspace::new();
        ws.tables.prepare(&field, axes.clone(), t);
        let tables = ws.tables.view(&field, t);
        let mut yz = vec![(0.0, 0.0); field.mode_count()];
        let mut row = vec![[0.0; 3]; axes[0].len().next_multiple_of(LANES)];
        tables.row(iy, iz, &mut yz, &mut row);
        let u = row[ix];
        let at = [axes[0][ix], axes[1][iy], axes[2][iz]].map(f64::from);
        let (u_direct, p_direct) = field.velocity_pressure(at, t);
        let bits = |u: [f64; 3], p: f64| [u[0], u[1], u[2], p].map(|v| (v as f32).to_bits());
        assert_ne!(bits(u, kinetic_pressure(u)), bits(u_direct, p_direct));

        let vol = axes.iter().map(Vec::len).product::<usize>();
        let mut out = vec![0.0; 4 * vol];
        let fallbacks = ws.fill(&field, axes, t, &mut out);
        let planes: [&[f32]; 4] = std::array::from_fn(|k| &out[k * vol..(k + 1) * vol]);
        let atom = AtomData::materialize(&cfg, &field, id);
        let (vx, vy, vz, p) = atom.planes();
        assert_eq!([vx, vy, vz, p], planes);
        let aos = AosAtom::materialize(&cfg, &field, id);
        let mut i = 0;
        for lz in -ghost..side + ghost {
            for ly in -ghost..side + ghost {
                for lx in -ghost..side + ghost {
                    let u = aos.velocity_at(lx, ly, lz);
                    let p = aos.pressure_at(lx, ly, lz);
                    let want = [u[0], u[1], u[2], p].map(f32::to_bits);
                    assert_eq!(planes.map(|pl| pl[i].to_bits()), want);
                    i += 1;
                }
            }
        }
        assert!(fallbacks > 0);
    }

    #[test]
    fn a_workspace_moves_between_fields_cleanly() {
        // The same atom at the same time: only the field changes, so stale
        // x/y tables or a stale z memo would show.
        let cfg = DbConfig::tiny();
        let a = SyntheticField::with_modes(1, cfg.grid_side, 8);
        let b = SyntheticField::with_modes(2, cfg.grid_side, 8);
        let id = AtomId::from_coords(1, 1, 0, 1);
        let mut ws = FillWorkspace::new();
        for field in [&a, &b, &a] {
            let warm = AtomData::materialize_with(&cfg, field, &mut ws, id);
            let fresh = AtomData::materialize(&cfg, field, id);
            assert_eq!(warm.planes(), fresh.planes());
        }
    }

    proptest! {
        /// Atoms filled one after another through one workspace are bit for
        /// bit the fresh [`AtomData::materialize`] of each id, whether the z
        /// memo hits or misses. Steps with `same_z` keep the previous step's
        /// timestep and z block (a hit); the others draw both afresh. Both
        /// the smoke geometry (8³ atoms, 2-voxel ghost) and, in one case of
        /// four (its atoms cost 8× more), the 64³ grid of 16³ atoms with a
        /// 4-voxel ghost are covered, with up to the default 48 modes.
        #[test]
        fn workspace_fill_matches_fresh_materialize(
            seed in 0u64..1_000_000,
            n_modes in 1usize..49,
            geometry in 0u32..4,
            steps in collection::vec((0u32..4, 0u32..4, 0u32..4, 0u32..4, 0u32..2), 1..6),
        ) {
            let (grid_side, atom_side, ghost) = if geometry == 0 { (64, 16, 4) } else { (32, 8, 2) };
            let cfg = DbConfig {
                grid_side,
                atom_side,
                ghost,
                timesteps: 4,
                dt: 0.002,
                seed,
            };
            let field = SyntheticField::with_modes(cfg.seed, cfg.grid_side, n_modes);
            let mut ws = FillWorkspace::new();
            let mut prev: Option<(u32, u32)> = None;
            let mut misses = 0;
            for (timestep, x, y, z, same_z) in steps {
                let (timestep, z) = match prev {
                    Some(tz) if same_z == 1 => tz,
                    _ => (timestep, z),
                };
                if prev != Some((timestep, z)) {
                    misses += 1;
                }
                prev = Some((timestep, z));
                let id = AtomId::from_coords(timestep, x, y, z);
                let warm = AtomData::materialize_with(&cfg, &field, &mut ws, id);
                let fresh = AtomData::materialize(&cfg, &field, id);
                prop_assert_eq!(warm.base(), fresh.base());
                let bits = |a: &AtomData| {
                    let (vx, vy, vz, p) = a.planes();
                    [vx, vy, vz, p].map(|pl| pl.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                };
                prop_assert!(bits(&warm) == bits(&fresh), "atom {id} differs");
            }
            prop_assert_eq!(ws.tables.z_builds, misses);
        }

        /// Every `f64` output of the separable sum — velocity components and
        /// the pressure derived from them — lies within its stated bound of
        /// the direct evaluation, on grids up to `DbConfig::paper_sample`'s
        /// 1024³ (large `|k·x|`), with the default 48 modes and timesteps up
        /// to the production archive's 1024 (large `|ωt|`).
        #[test]
        fn block_fill_stays_within_its_error_bound(
            seed in 0u64..1_000_000,
            log_side in 4u32..11,
            timestep in 0u32..1024,
            origin in (0u32..1024, 0u32..1024, 0u32..1024),
            ext in 1usize..6,
        ) {
            let side = 1u32 << log_side;
            let field = SyntheticField::new(seed, side);
            let t = timestep as f64 * 0.002;
            // Scattered coordinates reach every part of the box.
            let axes = [origin.0, origin.1, origin.2].map(|o| {
                (0..ext as u32)
                    .map(|i| (o + 37 * i) % side)
                    .collect::<Vec<_>>()
            });
            let mut ws = FillWorkspace::new();
            ws.tables.prepare(&field, axes.clone(), t);
            let tables = ws.tables.view(&field, t);
            prop_assert!(tables.delta < 1e-9, "vacuous bound {}", tables.delta);
            let mut yz = vec![(0.0, 0.0); field.mode_count()];
            let mut row = vec![[0.0; 3]; ext.next_multiple_of(LANES)];
            for (iz, &z) in axes[2].iter().enumerate() {
                for (iy, &y) in axes[1].iter().enumerate() {
                    tables.row(iy, iz, &mut yz, &mut row);
                    for (&u, &x) in row.iter().zip(&axes[0]) {
                        let at = [x, y, z].map(f64::from);
                        let (u_direct, p_direct) = field.velocity_pressure(at, t);
                        for c in 0..3 {
                            prop_assert!((u[c] - u_direct[c]).abs() <= tables.delta);
                        }
                        let p = kinetic_pressure(u);
                        prop_assert!((p - p_direct).abs() <= pressure_bound(u, p, tables.delta));
                    }
                }
            }
        }
    }
}
