//! Force-kernel selection and the O(n) linked-cell/Verlet evaluation path.
//!
//! [`crate::forces::compute_forces`] is the naive all-pairs O(n²) oracle:
//! simple, obviously correct, and kept unchanged. This module adds the
//! production path — a linked-cell spatial grid over the periodic box plus a
//! Verlet neighbor list with a skin radius — behind the [`ForceKernel`]
//! enum, selectable per engine or process-wide via `NSX_FORCE_KERNEL`
//! (`naive` | `cell` | `simd`, default `cell`).
//!
//! On top of the scalar cell-list path sits a hardware-fast tier sharing
//! the same neighbor list (exposed to it as a CSR row view):
//! [`ForceKernel::Simd`] packs positions into a structure-of-arrays store
//! ([`crate::soa`]) and runs the lane-batched kernel ([`crate::simd`]):
//! candidate filtering, 9-site gathering, and packed 4-wide
//! square-root/division stages instead of the scalar per-pair loop.
//!
//! # Exactness
//!
//! The naive kernel skips a molecule pair outright only when the O–O
//! minimum-image distance exceeds `rc + 3 Å`; pairs closer than that but
//! farther than `rc + 2δ` (δ = the largest charge-site offset from the
//! oxygen, `max(r_OH, r_OM)`) contribute *exactly zero*: every site–site
//! distance is at least `r_OO − 2δ ≥ rc`, so each site pair fails the strict
//! `r < rc` inclusion test. A neighbor list with interaction reach
//! `rc + 2δ` therefore reproduces the naive pair set's nonzero
//! contributions exactly; the list is built out to `reach + skin` so it
//! stays valid while every molecule has moved less than `skin/2` since the
//! build (two molecules approaching head-on close the gap at `2 × skin/2 =
//! skin`). The O–O displacement for each listed pair uses a precomputed
//! `1/L` (one multiply per component instead of the oracle's divide), with
//! a half-box guard that falls back to the oracle's own [`min_image_vec`]
//! wherever the two roundings could pick different images; the per-site
//! arithmetic is likewise reorganized (squared-distance early-out, one
//! division per site pair instead of three). Agreement is ~1e-14 relative —
//! well inside the 1e-10 equivalence budget enforced by
//! `tests/kernel_equivalence.rs`.
//!
//! # Rebuild policy
//!
//! The cached list is invalidated when (a) any oxygen has drifted `skin/2`
//! or more from its position at build time, (b) the box length changed (an
//! NPT box rescale — see [`crate::npt`]), (c) the cutoff or molecule count
//! changed. When the box is too small for a 3×3×3 cell decomposition at the
//! list radius the build falls back to an O(n²) sweep — still amortized
//! over the many steps the Verlet skin keeps the list valid.

use crate::forces::{compute_forces, Forces};
use crate::simd::{compute_rows, Csr, LaneScratch, PairParams};
use crate::soa::{SoaForces, SoaSites};
use crate::system::{min_image_vec, System};
use crate::units::COULOMB;
use crate::vec3::Vec3;
use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// Default Verlet skin radius, Å. Larger skins rebuild less often but carry
/// more out-of-reach pairs per step; ~1 Å is the usual liquid-water sweet
/// spot for sub-10 Å cutoffs.
pub const DEFAULT_SKIN: f64 = 1.0;

/// Which short-range force evaluation path to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForceKernel {
    /// The all-pairs O(n²) oracle in [`crate::forces`].
    Naive,
    /// Linked-cell grid + Verlet neighbor list (O(n) per step), scalar.
    #[default]
    CellList,
    /// The lane-batched SoA kernel over the same neighbor list
    /// ([`crate::simd`]), serial.
    Simd,
}

impl ForceKernel {
    /// Parse a kernel name (`naive`, `cell`/`celllist`/`cell-list`/
    /// `cell_list`, or `simd`), case-insensitive.
    pub fn parse(s: &str) -> Option<ForceKernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(ForceKernel::Naive),
            "cell" | "celllist" | "cell-list" | "cell_list" => Some(ForceKernel::CellList),
            "simd" => Some(ForceKernel::Simd),
            _ => None,
        }
    }

    /// Kernel selection from the `NSX_FORCE_KERNEL` environment variable;
    /// unset or unrecognized values fall back to the default
    /// ([`ForceKernel::CellList`]).
    pub fn from_env() -> ForceKernel {
        std::env::var("NSX_FORCE_KERNEL")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    /// Stable lower-case name (matches what [`ForceKernel::parse`] accepts).
    pub fn name(&self) -> &'static str {
        match self {
            ForceKernel::Naive => "naive",
            ForceKernel::CellList => "cell",
            ForceKernel::Simd => "simd",
        }
    }

    /// True for the kernels that evaluate through the Verlet neighbor list.
    fn uses_list(&self) -> bool {
        !matches!(self, ForceKernel::Naive)
    }
}

/// Counters accumulated by a [`ForceEngine`] over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Force evaluations performed.
    pub evals: u64,
    /// Neighbor-list (re)builds (list-backed kernels only).
    pub rebuilds: u64,
    /// Total wall-clock spent inside [`ForceEngine::compute`], ns.
    pub force_nanos: u64,
    /// Σ over rebuilds of the pair count of the freshly built list.
    pub pair_sum: u64,
    /// 4-wide lane batches executed (simd kernel).
    pub lanes: u64,
    /// Wall-clock spent packing the SoA position store, ns.
    pub pack_nanos: u64,
}

impl KernelStats {
    /// Mean wall-clock per force evaluation, ns (0.0 before the first
    /// evaluation — never NaN).
    pub fn ns_per_eval(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.force_nanos as f64 / self.evals as f64
        }
    }

    /// Record a freshly built list's pair count. Saturating: a long-lived
    /// engine (the multi-run service keeps engines alive indefinitely)
    /// must pin the lifetime sum at `u64::MAX` rather than wrap.
    pub fn record_pairs(&mut self, pairs: u64) {
        self.pair_sum = self.pair_sum.saturating_add(pairs);
    }
}

/// Registry handles mirrored when a registry is attached
/// ([`ForceEngine::with_metrics`]). Metric names: `water.kernel.evals`,
/// `water.kernel.rebuilds`, `water.kernel.force_nanos`,
/// `water.kernel.neighbor_pairs` (Σ list length over rebuilds),
/// `water.kernel.lanes` (4-wide lane batches), `water.kernel.pack_nanos`
/// (SoA pack wall-clock), and the `water.kernel.avg_neighbors` gauge
/// (neighbors per molecule at build).
struct KernelObs {
    evals: Arc<Counter>,
    rebuilds: Arc<Counter>,
    force_nanos: Arc<Counter>,
    neighbor_pairs: Arc<Counter>,
    lanes: Arc<Counter>,
    pack_nanos: Arc<Counter>,
    avg_neighbors: Arc<Gauge>,
}

impl KernelObs {
    fn register(registry: &MetricsRegistry) -> Self {
        KernelObs {
            evals: registry.counter("water.kernel.evals"),
            rebuilds: registry.counter("water.kernel.rebuilds"),
            force_nanos: registry.counter("water.kernel.force_nanos"),
            neighbor_pairs: registry.counter("water.kernel.neighbor_pairs"),
            lanes: registry.counter("water.kernel.lanes"),
            pack_nanos: registry.counter("water.kernel.pack_nanos"),
            avg_neighbors: registry.gauge("water.kernel.avg_neighbors"),
        }
    }
}

/// The padding added to `rc` to reach every molecule pair with a possibly
/// interacting site pair: twice the largest charge-site offset from the
/// oxygen, capped at the naive kernel's own 3 Å skip margin so the two
/// kernels always agree on which pairs may contribute.
fn reach_pad(sys: &System) -> f64 {
    (2.0 * sys.model.r_oh.max(sys.model.r_om)).min(3.0)
}

/// A Verlet neighbor list: molecule index pairs within `rc + pad + skin` of
/// each other (O–O minimum image) at build time, plus the reference oxygen
/// positions used for displacement-triggered invalidation.
struct NeighborList {
    /// Canonically ordered (i < j, sorted) so results are independent of
    /// whether the grid or the fallback sweep built the list.
    pairs: Vec<(u32, u32)>,
    /// The same pairs as CSR rows for the lane kernel.
    csr: Csr,
    ref_o: Vec<Vec3>,
    box_len: f64,
    rc: f64,
    half_skin_sq: f64,
}

/// Half-space stencil of the 13 forward neighbor cells (plus the cell
/// itself, handled separately) — each unordered cell pair is visited once.
const HALF_STENCIL: [(i64, i64, i64); 13] = [
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (-1, -1, 1),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
];

impl NeighborList {
    fn build(sys: &System, rc: f64, skin: f64) -> NeighborList {
        let l = sys.box_len;
        let r_list = rc + reach_pad(sys) + skin;
        let r_list_sq = r_list * r_list;
        // The half stencil only visits each unordered cell pair once if the
        // offsets stay distinct modulo the grid — that needs at least three
        // cells per dimension; otherwise fall back to a full sweep (the
        // Verlet skin still amortizes it over many steps).
        let ncell = (l / r_list).floor() as usize;
        let mut pairs = if ncell >= 3 {
            Self::grid_pairs(sys, r_list_sq, ncell)
        } else {
            Self::sweep_pairs(sys, r_list_sq)
        };
        pairs.sort_unstable();
        let csr = Csr::from_pairs(sys.n_molecules(), &pairs);
        NeighborList {
            pairs,
            csr,
            ref_o: sys.molecules.iter().map(|m| m.r[0]).collect(),
            box_len: l,
            rc,
            half_skin_sq: (skin / 2.0) * (skin / 2.0),
        }
    }

    /// All-pairs list build (small or dense boxes).
    fn sweep_pairs(sys: &System, r_list_sq: f64) -> Vec<(u32, u32)> {
        let n = sys.n_molecules();
        let l = sys.box_len;
        let mut pairs = Vec::new();
        for i in 0..n {
            let ri = sys.molecules[i].r[0];
            for j in i + 1..n {
                let d = min_image_vec(ri - sys.molecules[j].r[0], l);
                if d.norm_sq() <= r_list_sq {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }

    /// Linked-cell list build: bin oxygens into an `ncell³` grid (cells are
    /// at least `r_list` wide) and test only same-cell and the 13
    /// forward-neighbor cell pairs.
    fn grid_pairs(sys: &System, r_list_sq: f64, ncell: usize) -> Vec<(u32, u32)> {
        let l = sys.box_len;
        let inv_cell = ncell as f64 / l;
        // Positions are unwrapped; wrap into [0, l) before binning. The
        // clamp guards the rounding edge where the wrapped value lands
        // exactly on l.
        let bin = |x: f64| -> usize {
            let wrapped = x - l * (x / l).floor();
            ((wrapped * inv_cell) as usize).min(ncell - 1)
        };
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncell * ncell * ncell];
        for (i, mol) in sys.molecules.iter().enumerate() {
            let (cx, cy, cz) = (bin(mol.r[0].x), bin(mol.r[0].y), bin(mol.r[0].z));
            cells[(cx * ncell + cy) * ncell + cz].push(i as u32);
        }
        let within = |a: u32, b: u32| -> bool {
            let d = min_image_vec(
                sys.molecules[a as usize].r[0] - sys.molecules[b as usize].r[0],
                l,
            );
            d.norm_sq() <= r_list_sq
        };
        let nc = ncell as i64;
        let wrap = |c: i64| -> usize { c.rem_euclid(nc) as usize };
        let mut pairs = Vec::new();
        for cx in 0..ncell {
            for cy in 0..ncell {
                for cz in 0..ncell {
                    let here = &cells[(cx * ncell + cy) * ncell + cz];
                    for (s, &a) in here.iter().enumerate() {
                        for &b in &here[s + 1..] {
                            if within(a, b) {
                                pairs.push((a.min(b), a.max(b)));
                            }
                        }
                    }
                    for &(ox, oy, oz) in &HALF_STENCIL {
                        let nx = wrap(cx as i64 + ox);
                        let ny = wrap(cy as i64 + oy);
                        let nz = wrap(cz as i64 + oz);
                        let there = &cells[(nx * ncell + ny) * ncell + nz];
                        for &a in here {
                            for &b in there {
                                if within(a, b) {
                                    pairs.push((a.min(b), a.max(b)));
                                }
                            }
                        }
                    }
                }
            }
        }
        pairs
    }

    /// True when the cached list still covers every pair that could
    /// interact: same box/cutoff/count, and no oxygen has drifted `skin/2`
    /// or more since the build.
    fn is_current(&self, sys: &System, rc: f64) -> bool {
        if self.rc != rc || self.box_len != sys.box_len || self.ref_o.len() != sys.n_molecules() {
            return false;
        }
        sys.molecules
            .iter()
            .zip(&self.ref_o)
            .all(|(m, &r0)| (m.r[0] - r0).norm_sq() < self.half_skin_sq)
    }
}

/// Reusable buffers for the serial lane-batched path.
#[derive(Debug, Default)]
struct SimdState {
    soa: SoaSites,
    scratch: LaneScratch,
    out: SoaForces,
}

/// A stateful force evaluator: kernel selection plus the cached neighbor
/// list and instrumentation. One engine per simulation; sharing an engine
/// across systems is safe (the cache keys on box/count/cutoff) but wastes
/// rebuilds.
pub struct ForceEngine {
    kernel: ForceKernel,
    skin: f64,
    list: Option<NeighborList>,
    stats: KernelStats,
    obs: Option<KernelObs>,
    simd: SimdState,
}

impl std::fmt::Debug for ForceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForceEngine")
            .field("kernel", &self.kernel)
            .field("skin", &self.skin)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for ForceEngine {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ForceEngine {
    /// An engine running `kernel` with the default skin.
    pub fn new(kernel: ForceKernel) -> Self {
        Self::with_skin(kernel, DEFAULT_SKIN)
    }

    /// An engine with the kernel taken from `NSX_FORCE_KERNEL` (default:
    /// cell-list).
    pub fn from_env() -> Self {
        Self::new(ForceKernel::from_env())
    }

    /// An engine with an explicit Verlet skin (Å, > 0).
    pub fn with_skin(kernel: ForceKernel, skin: f64) -> Self {
        assert!(skin > 0.0, "Verlet skin must be positive, got {skin}");
        ForceEngine {
            kernel,
            skin,
            list: None,
            stats: KernelStats::default(),
            obs: None,
            simd: SimdState::default(),
        }
    }

    /// An engine mirroring its counters into `registry` (`water.kernel.*`).
    pub fn with_metrics(kernel: ForceKernel, skin: f64, registry: &MetricsRegistry) -> Self {
        let mut e = Self::with_skin(kernel, skin);
        e.obs = Some(KernelObs::register(registry));
        e
    }

    /// The kernel this engine runs.
    pub fn kernel(&self) -> ForceKernel {
        self.kernel
    }

    /// Lifetime counters (evals, rebuilds, wall-clock, pair sums).
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Average neighbors per molecule in the current list (0 when no list
    /// is cached — naive kernel or before the first evaluation).
    pub fn avg_neighbors(&self) -> f64 {
        match &self.list {
            Some(l) if !l.ref_o.is_empty() => 2.0 * l.pairs.len() as f64 / l.ref_o.len() as f64,
            _ => 0.0,
        }
    }

    /// Drop the cached neighbor list. Called after any external change the
    /// displacement check cannot see on its own; box rescales are also
    /// caught by the box-length key, so this is belt and braces for NPT.
    pub fn invalidate(&mut self) {
        self.list = None;
    }

    /// Forces, potential energy, and molecular virial at O–O cutoff `rc`,
    /// via the selected kernel.
    pub fn compute(&mut self, sys: &System, rc: f64) -> Forces {
        let t0 = Instant::now();
        let out = if self.kernel.uses_list() {
            if !self.list.as_ref().is_some_and(|l| l.is_current(sys, rc)) {
                let list = NeighborList::build(sys, rc, self.skin);
                self.stats.rebuilds += 1;
                self.stats.record_pairs(list.pairs.len() as u64);
                if let Some(o) = &self.obs {
                    o.rebuilds.inc();
                    o.neighbor_pairs.add(list.pairs.len() as u64);
                    let n = sys.n_molecules().max(1);
                    o.avg_neighbors.record((2 * list.pairs.len() / n) as u64);
                }
                self.list = Some(list);
            }
            match self.kernel {
                ForceKernel::CellList => {
                    let pairs = self.list.as_ref().map_or(&[][..], |l| l.pairs.as_slice());
                    pair_forces(sys, rc, pairs)
                }
                ForceKernel::Simd => self.simd_eval(sys, rc),
                // uses_list() is false for Naive.
                ForceKernel::Naive => unreachable!(),
            }
        } else {
            compute_forces(sys, rc)
        };
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats.evals += 1;
        self.stats.force_nanos += dt;
        if let Some(o) = &self.obs {
            o.evals.inc();
            o.force_nanos.add(dt);
        }
        out
    }

    /// Lane-batched evaluation over every list row.
    fn simd_eval(&mut self, sys: &System, rc: f64) -> Forces {
        let params = PairParams::new(&sys.model, rc, rc + reach_pad(sys));
        let tp = Instant::now();
        self.simd.soa.pack(sys);
        let pack_ns = tp.elapsed().as_nanos() as u64;
        let n = sys.n_molecules();
        self.simd.out.reset(n);
        let empty;
        let csr = match &self.list {
            Some(l) => &l.csr,
            None => {
                empty = Csr::from_pairs(n, &[]);
                &empty
            }
        };
        let lanes = compute_rows(
            &self.simd.soa,
            sys.box_len,
            &params,
            csr,
            &mut self.simd.scratch,
            &mut self.simd.out,
        );
        self.stats.lanes += lanes;
        self.stats.pack_nanos += pack_ns;
        if let Some(o) = &self.obs {
            o.lanes.add(lanes);
            o.pack_nanos.add(pack_ns);
        }
        self.simd.out.into_forces(sys.model.msite_coeff())
    }
}

/// Force/energy/virial evaluation over an explicit molecule-pair list.
///
/// Physics identical to [`compute_forces`] (same shifted-force LJ and
/// Wolf-style Coulomb, same strict `r < rc` site inclusion, same molecular
/// virial); the per-site arithmetic is streamlined — squared-distance
/// early-out before the square root, one reciprocal per interacting site
/// pair — so individual floating-point results may differ from the oracle
/// by rounding only.
fn pair_forces(sys: &System, rc: f64, pairs: &[(u32, u32)]) -> Forces {
    let n = sys.n_molecules();
    let l = sys.box_len;
    let model = sys.model;
    let rc2 = rc * rc;
    let a_coef = model.msite_coeff();
    let (lj_a, lj_b) = (model.lj_a(), model.lj_b());
    let (lj_e_rc, lj_f_rc) = {
        let inv_rc2 = 1.0 / rc2;
        let inv_rc6 = inv_rc2 * inv_rc2 * inv_rc2;
        let inv_rc12 = inv_rc6 * inv_rc6;
        (
            lj_a * inv_rc12 - lj_b * inv_rc6,
            (12.0 * lj_a * inv_rc12 - 6.0 * lj_b * inv_rc6) / rc,
        )
    };
    let charges = [model.q_h, model.q_h, model.q_m()];
    let inv_rc = 1.0 / rc;
    let inv_rc2 = inv_rc * inv_rc;
    let reach = rc + reach_pad(sys);
    let reach2 = reach * reach;

    let mut f4: Vec<[Vec3; 4]> = vec![[Vec3::zero(); 4]; n];
    let mut potential = 0.0;
    let mut virial = 0.0;

    let msites: Vec<Vec3> = sys
        .molecules
        .iter()
        .map(|m| model.msite(m.r[0], m.r[1], m.r[2]))
        .collect();

    let inv_l = 1.0 / l;

    for &(pi, pj) in pairs {
        let (i, j) = (pi as usize, pj as usize);
        // Minimum image via a precomputed reciprocal: one multiply per
        // component instead of the oracle's divide. `d*inv_l` and `d/l`
        // can round `.round()` to different images only when a component
        // sits within an ulp of half the box (lattice starts hit exactly
        // L/2 generically) — a wrong image shows up as |component| ≥
        // L/2·(1−ε), so those rare pairs are recomputed with the oracle's
        // own `min_image_vec` and stay bit-identical to it.
        let dr = sys.molecules[i].r[0] - sys.molecules[j].r[0];
        let mut d_oo = Vec3::new(
            dr.x - l * (dr.x * inv_l).round(),
            dr.y - l * (dr.y * inv_l).round(),
            dr.z - l * (dr.z * inv_l).round(),
        );
        let guard = 0.4999 * l;
        if d_oo.x.abs() >= guard || d_oo.y.abs() >= guard || d_oo.z.abs() >= guard {
            d_oo = min_image_vec(dr, l);
        }
        let r2 = d_oo.norm_sq();
        // Beyond rc + 2δ no site pair can pass the strict r < rc test (see
        // module docs) — the naive kernel computes exactly zero here.
        if r2 > reach2 {
            continue;
        }
        let shift = (sys.molecules[i].r[0] - d_oo) - sys.molecules[j].r[0];

        let mut f_pair_on_i = Vec3::zero();
        let mut interacted = false;

        if r2 <= rc2 {
            interacted = true;
            let r = r2.sqrt();
            let inv_r2 = 1.0 / r2;
            let inv_r6 = inv_r2 * inv_r2 * inv_r2;
            let inv_r12 = inv_r6 * inv_r6;
            potential += lj_a * inv_r12 - lj_b * inv_r6 - lj_e_rc + (r - rc) * lj_f_rc;
            let fr = (12.0 * lj_a * inv_r12 - 6.0 * lj_b * inv_r6) / r;
            let fv = d_oo * ((fr - lj_f_rc) / r);
            f4[i][0] += fv;
            f4[j][0] -= fv;
            f_pair_on_i += fv;
        }

        let sites_i = [sys.molecules[i].r[1], sys.molecules[i].r[2], msites[i]];
        let sites_j = [
            sys.molecules[j].r[1] + shift,
            sys.molecules[j].r[2] + shift,
            msites[j] + shift,
        ];
        for (si, &ri) in sites_i.iter().enumerate() {
            for (sj, &rj) in sites_j.iter().enumerate() {
                let d = ri - rj;
                let d2 = d.norm_sq();
                // Squared-distance early-out: r² ≥ rc² ⟺ r ≥ rc up to one
                // rounding ulp at the boundary, where the shifted-force
                // terms vanish to second order anyway.
                if d2 >= rc2 {
                    continue;
                }
                interacted = true;
                let r = d2.sqrt();
                let inv_r = 1.0 / r;
                let qq = COULOMB * charges[si] * charges[sj];
                potential += qq * (inv_r - inv_rc + (r - rc) * inv_rc2);
                let fmag = qq * (inv_r * inv_r - inv_rc2) * inv_r;
                let fv = d * fmag;
                f4[i][si + 1] += fv;
                f4[j][sj + 1] -= fv;
                f_pair_on_i += fv;
            }
        }

        if interacted {
            virial += d_oo.dot(f_pair_on_i);
        }
    }

    let f = f4
        .into_iter()
        .map(|[fo, fh1, fh2, fm]| {
            [
                fo + (1.0 - 2.0 * a_coef) * fm,
                fh1 + a_coef * fm,
                fh2 + a_coef * fm,
            ]
        })
        .collect();

    Forces {
        f,
        potential,
        virial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;

    fn assert_close(a: &Forces, b: &Forces, tol: f64) {
        let scale =
            a.f.iter()
                .flatten()
                .map(|v| v.norm())
                .fold(1.0_f64, f64::max);
        assert!(
            (a.potential - b.potential).abs() <= tol * a.potential.abs().max(1.0),
            "potential {} vs {}",
            a.potential,
            b.potential
        );
        assert!(
            (a.virial - b.virial).abs() <= tol * a.virial.abs().max(1.0),
            "virial {} vs {}",
            a.virial,
            b.virial
        );
        for (fa, fb) in a.f.iter().zip(&b.f) {
            for (va, vb) in fa.iter().zip(fb) {
                assert!(
                    (*va - *vb).norm() <= tol * scale,
                    "force {va:?} vs {vb:?} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn parse_accepts_all_kernels() {
        assert_eq!(ForceKernel::parse("naive"), Some(ForceKernel::Naive));
        assert_eq!(ForceKernel::parse("NAIVE"), Some(ForceKernel::Naive));
        assert_eq!(ForceKernel::parse("cell"), Some(ForceKernel::CellList));
        assert_eq!(ForceKernel::parse("Cell-List"), Some(ForceKernel::CellList));
        assert_eq!(ForceKernel::parse("cell_list"), Some(ForceKernel::CellList));
        assert_eq!(ForceKernel::parse("simd"), Some(ForceKernel::Simd));
        assert_eq!(ForceKernel::parse("SIMD"), Some(ForceKernel::Simd));
        assert_eq!(ForceKernel::parse("sharded"), None);
        assert_eq!(ForceKernel::parse("ewald"), None);
        assert_eq!(ForceKernel::default(), ForceKernel::CellList);
        assert_eq!(ForceKernel::Simd.name(), "simd");
    }

    #[test]
    fn cell_list_matches_naive_on_a_lattice() {
        let sys = System::lattice(TIP4P, 3, 0.997, 298.0, 7);
        for rc in [3.0, 4.0, sys.box_len / 2.0] {
            let naive = compute_forces(&sys, rc);
            let mut engine = ForceEngine::new(ForceKernel::CellList);
            let cell = engine.compute(&sys, rc);
            assert_close(&naive, &cell, 1e-10);
            assert_eq!(engine.stats().rebuilds, 1);
            assert!(engine.avg_neighbors() > 0.0);
        }
    }

    #[test]
    fn grid_and_sweep_builds_agree() {
        // 125 molecules: with a short cutoff the box fits ≥ 3 cells per
        // dimension, so the grid path runs; the sweep must list the same
        // pairs (canonical order makes Vec equality meaningful).
        let sys = System::lattice(TIP4P, 5, 0.997, 298.0, 11);
        let rc = 2.5;
        let skin = 0.5;
        let r_list = rc + reach_pad(&sys) + skin;
        assert!(
            (sys.box_len / r_list).floor() >= 3.0,
            "test needs the grid path"
        );
        let grid = NeighborList::build(&sys, rc, skin);
        let mut sweep = NeighborList::sweep_pairs(&sys, r_list * r_list);
        sweep.sort_unstable();
        assert_eq!(grid.pairs, sweep);
    }

    #[test]
    fn list_survives_small_moves_and_rebuilds_on_large_ones() {
        let mut sys = System::lattice(TIP4P, 3, 0.997, 298.0, 3);
        let rc = 4.0;
        let mut engine = ForceEngine::with_skin(ForceKernel::CellList, 1.0);
        engine.compute(&sys, rc);
        assert_eq!(engine.stats().rebuilds, 1);
        // Move everything well under skin/2: the cached list must be reused
        // and still agree with the oracle.
        for mol in &mut sys.molecules {
            for r in &mut mol.r {
                r.x += 0.1;
            }
        }
        let cell = engine.compute(&sys, rc);
        assert_eq!(engine.stats().rebuilds, 1, "list should be reused");
        assert_close(&compute_forces(&sys, rc), &cell, 1e-10);
        // Move one molecule past skin/2: rebuild.
        for r in &mut sys.molecules[0].r {
            r.y += 0.6;
        }
        let cell = engine.compute(&sys, rc);
        assert_eq!(engine.stats().rebuilds, 2, "drift must trigger a rebuild");
        assert_close(&compute_forces(&sys, rc), &cell, 1e-10);
    }

    #[test]
    fn box_change_invalidates_the_list() {
        let mut sys = System::lattice(TIP4P, 3, 0.997, 298.0, 4);
        let rc = 4.0;
        let mut engine = ForceEngine::new(ForceKernel::CellList);
        engine.compute(&sys, rc);
        crate::npt::scale_box(&mut sys, 1.01);
        let cell = engine.compute(&sys, rc);
        assert_eq!(engine.stats().rebuilds, 2);
        assert_close(&compute_forces(&sys, rc), &cell, 1e-10);
    }

    #[test]
    fn naive_engine_delegates_to_oracle() {
        let sys = System::lattice(TIP4P, 2, 0.997, 298.0, 5);
        let rc = sys.box_len / 2.0;
        let mut engine = ForceEngine::new(ForceKernel::Naive);
        let a = engine.compute(&sys, rc);
        let b = compute_forces(&sys, rc);
        assert_eq!(a.potential, b.potential);
        assert_eq!(a.virial, b.virial);
        assert_eq!(engine.stats().rebuilds, 0);
        assert_eq!(engine.stats().evals, 1);
    }

    #[test]
    fn simd_matches_naive_on_a_lattice() {
        let sys = System::lattice(TIP4P, 3, 0.997, 298.0, 7);
        for rc in [3.0, 4.0, sys.box_len / 2.0] {
            let naive = compute_forces(&sys, rc);
            let mut engine = ForceEngine::new(ForceKernel::Simd);
            let simd = engine.compute(&sys, rc);
            assert_close(&naive, &simd, 1e-10);
            assert_eq!(engine.stats().rebuilds, 1);
            assert!(engine.stats().lanes > 0, "lane batches should be counted");
        }
    }

    #[test]
    fn stats_start_clean_and_saturate() {
        let engine = ForceEngine::new(ForceKernel::Simd);
        assert_eq!(engine.stats().ns_per_eval(), 0.0, "no evals yet → 0.0");
        let mut stats = KernelStats {
            pair_sum: u64::MAX - 1,
            ..KernelStats::default()
        };
        stats.record_pairs(100);
        assert_eq!(stats.pair_sum, u64::MAX, "pair_sum must saturate");
    }

    #[test]
    fn metrics_mirror_lane_kernel_activity() {
        let reg = MetricsRegistry::new();
        let sys = System::lattice(TIP4P, 3, 0.997, 298.0, 8);
        let mut engine = ForceEngine::with_metrics(ForceKernel::Simd, 1.0, &reg);
        engine.compute(&sys, 4.0);
        assert_eq!(
            reg.counter("water.kernel.lanes").get(),
            engine.stats().lanes
        );
        assert!(reg.counter("water.kernel.lanes").get() > 0);
        assert_eq!(
            reg.counter("water.kernel.pack_nanos").get(),
            engine.stats().pack_nanos
        );
    }

    #[test]
    fn metrics_mirror_kernel_activity() {
        let reg = MetricsRegistry::new();
        let sys = System::lattice(TIP4P, 3, 0.997, 298.0, 6);
        let mut engine = ForceEngine::with_metrics(ForceKernel::CellList, 1.0, &reg);
        for _ in 0..3 {
            engine.compute(&sys, 4.0);
        }
        assert_eq!(reg.counter("water.kernel.evals").get(), 3);
        assert_eq!(reg.counter("water.kernel.rebuilds").get(), 1);
        assert!(reg.counter("water.kernel.neighbor_pairs").get() > 0);
        assert!(reg.gauge("water.kernel.avg_neighbors").max() > 0);
        assert!(engine.stats().ns_per_eval() > 0.0);
    }
}
