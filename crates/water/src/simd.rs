//! The lane-batched (SIMD-friendly) pair kernel over the SoA site store.
//!
//! Same physics as [`crate::forces::compute_forces`] and the scalar
//! cell-list path in [`crate::kernel`] — shifted-force LJ on oxygens,
//! Wolf-style shifted-force Coulomb per charge-site pair with strict
//! `r < rc` inclusion, molecular virial — reorganized into three stages so
//! the expensive arithmetic runs four lanes wide ([`crate::vec3::F64x4`],
//! stable-Rust autovectorized `[f64; 4]` math):
//!
//! 1. **Filter + pack**, itself two branch-free passes. 1a walks the
//!    Verlet list's CSR rows, minimum-images the O–O displacement
//!    (precomputed `1/L` multiply with the same half-box guard as the
//!    scalar kernel), and cursor-compacts pairs within the interaction
//!    reach `rc + 2δ` into parallel candidate arrays. 1b revisits the
//!    survivors, evaluates the nine charge-site squared distances as three
//!    lane-padded F64x4 rows, and packs each in-cutoff site pair — and
//!    each LJ-active O–O pair — as a *self-contained* entry: displacement,
//!    charge product, and the two flattened force-slot indices. Stage 2
//!    never looks back at pair-level data.
//! 2. **Lane math + scatter** — the only stage with square roots and
//!    divisions, run over the packed entries in 4-wide chunks at full lane
//!    occupancy with contiguous loads; each chunk's forces are scattered to
//!    their slots while still hot. Lane-partial potential and virial
//!    accumulators are folded in fixed order at the end.
//! 3. **Virial correction** — the lanes accumulate the *site-level* virial
//!    `Σₑ dₑ·fₑ = Σₑ d²ₑ·fmagₑ` (free alongside the force math). The
//!    molecular virial the oracle computes follows from
//!    `d_oo = dₑ − off_i(sᵢ) + off_j(sⱼ)` (off = intramolecular site
//!    offset from O, PBC-independent), which telescopes over entries to
//!    one O(n) pass: `Σₑ d_oo·fₑ = Σₑ dₑ·fₑ − Σ_{m,s} off_m(s)·F_{s,m}`
//!    with `F_{s,m}` the slot forces this call accumulated — which is why
//!    `out` must be freshly zeroed (the one call site complies).
//!
//! Every stage visits pairs in CSR order and every reduction has a fixed
//! association order, so the result is a pure function of the inputs.
//! Agreement with the naive oracle is
//! rounding-level (~1e-13 relative, vs the 1e-10 budget): lane math
//! substitutes `1/√r²·r²` for `√r²`, division orders differ, and the
//! virial is the telescoped rearrangement above, but no term is
//! approximated.

use crate::model::WaterModel;
use crate::soa::{SoaForces, SoaSites};
use crate::system::min_image;
use crate::units::COULOMB;
use crate::vec3::F64x4;

/// Lane width of the batched stages.
pub(crate) const LANES: usize = 4;

/// CSR view of the Verlet list: `cols[row_start[i]..row_start[i+1]]` are
/// molecule i's listed neighbors j (all j > i, ascending).
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    pub row_start: Vec<u32>,
    pub cols: Vec<u32>,
}

impl Csr {
    /// Build from the canonical sorted (i < j) pair list.
    pub(crate) fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut row_start = vec![0u32; n + 1];
        for &(i, _) in pairs {
            row_start[i as usize + 1] += 1;
        }
        for r in 1..=n {
            row_start[r] += row_start[r - 1];
        }
        Csr {
            row_start,
            cols: pairs.iter().map(|&(_, j)| j).collect(),
        }
    }
}

/// Interaction constants precomputed once per evaluation and shared by
/// every lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairParams {
    pub rc: f64,
    pub rc2: f64,
    /// `(rc + 2δ)²` — beyond this no site pair can pass `r < rc`.
    pub reach2: f64,
    pub lj_a: f64,
    pub lj_b: f64,
    pub lj_e_rc: f64,
    pub lj_f_rc: f64,
    pub inv_rc: f64,
    pub inv_rc2: f64,
    /// `COULOMB · q_si · q_sj` per charge-site combo (H1, H2, M)², laid
    /// out stride-4 (`c = 4·si + sj`, lane 3 of each row a zero pad) to
    /// match the lane-padded site-pair rows in `compute_rows`.
    pub qq: [f64; 12],
}

impl PairParams {
    pub(crate) fn new(model: &WaterModel, rc: f64, reach: f64) -> PairParams {
        let rc2 = rc * rc;
        let (lj_a, lj_b) = (model.lj_a(), model.lj_b());
        let inv_rc2 = 1.0 / rc2;
        let inv_rc6 = inv_rc2 * inv_rc2 * inv_rc2;
        let inv_rc12 = inv_rc6 * inv_rc6;
        let charges = [model.q_h, model.q_h, model.q_m()];
        let mut qq = [0.0; 12];
        for si in 0..3 {
            for sj in 0..3 {
                qq[4 * si + sj] = COULOMB * charges[si] * charges[sj];
            }
        }
        PairParams {
            rc,
            rc2,
            reach2: reach * reach,
            lj_a,
            lj_b,
            lj_e_rc: lj_a * inv_rc12 - lj_b * inv_rc6,
            lj_f_rc: (12.0 * lj_a * inv_rc12 - 6.0 * lj_b * inv_rc6) / rc,
            inv_rc: 1.0 / rc,
            inv_rc2: (1.0 / rc) * (1.0 / rc),
            qq,
        }
    }
}

/// Reusable scratch for the packed stages. Buffer capacity persists across
/// evaluations, so steady-state
/// evaluations allocate nothing. All staging is cursor-compacted into
/// pre-sized buffers — write unconditionally, advance the cursor on the
/// inclusion mask — so the hot loops carry no data-dependent branches.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    // In-reach candidate pairs (parallel arrays): molecule indices, O–O
    // minimum-image displacement, squared distance.
    pi: Vec<u32>,
    pj: Vec<u32>,
    pdx: Vec<f64>,
    pdy: Vec<f64>,
    pdz: Vec<f64>,
    pr2: Vec<f64>,
    // LJ-active O–O pairs: displacement, squared distance, molecule
    // indices (O sites live in slot 0, so the flattened force index of an
    // O site is the molecule index itself).
    lj_dx: Vec<f64>,
    lj_dy: Vec<f64>,
    lj_dz: Vec<f64>,
    lj_r2: Vec<f64>,
    lj_i: Vec<u32>,
    lj_j: Vec<u32>,
    // Packed in-cutoff charge-site pairs: displacement, charge product,
    // flattened force-slot indices. d² is recomputed in lanes in stage 2
    // (five flops beat an 8-byte store + load per entry).
    s_dx: Vec<f64>,
    s_dy: Vec<f64>,
    s_dz: Vec<f64>,
    s_qq: Vec<f64>,
    s_ii: Vec<u32>,
    s_jj: Vec<u32>,
}

/// Evaluate every row of the neighbor list `csr`, accumulating forces,
/// potential, and virial into `out` (sized for the full system). Returns
/// the number of 4-wide lane batches executed (the `water.kernel.lanes`
/// counter).
pub(crate) fn compute_rows(
    soa: &SoaSites,
    box_len: f64,
    p: &PairParams,
    csr: &Csr,
    scratch: &mut LaneScratch,
    out: &mut SoaForces,
) -> u64 {
    let n = soa.n;
    let (row_start, cols) = (&csr.row_start[..], &csr.cols[..]);
    let l = box_len;
    let inv_l = 1.0 / l;
    let guard = 0.4999 * l;
    let sites = &soa.sites[..];

    // Stage 1 scratch sizing: `cap` bounds the candidate count (all CSR
    // entries), `site_cap` the packed site pairs (nine per
    // candidate). The `.max(len)` keeps buffers grow-only so steady-state
    // evaluations never reallocate.
    let cap = row_start[n] as usize;
    let site_cap = 9 * cap;
    scratch.pi.resize(cap.max(scratch.pi.len()), 0);
    scratch.pj.resize(cap.max(scratch.pj.len()), 0);
    scratch.pdx.resize(cap.max(scratch.pdx.len()), 0.0);
    scratch.pdy.resize(cap.max(scratch.pdy.len()), 0.0);
    scratch.pdz.resize(cap.max(scratch.pdz.len()), 0.0);
    scratch.pr2.resize(cap.max(scratch.pr2.len()), 0.0);
    scratch.lj_dx.resize(cap.max(scratch.lj_dx.len()), 0.0);
    scratch.lj_dy.resize(cap.max(scratch.lj_dy.len()), 0.0);
    scratch.lj_dz.resize(cap.max(scratch.lj_dz.len()), 0.0);
    scratch.lj_r2.resize(cap.max(scratch.lj_r2.len()), 0.0);
    scratch.lj_i.resize(cap.max(scratch.lj_i.len()), 0);
    scratch.lj_j.resize(cap.max(scratch.lj_j.len()), 0);
    scratch.s_dx.resize(site_cap.max(scratch.s_dx.len()), 0.0);
    scratch.s_dy.resize(site_cap.max(scratch.s_dy.len()), 0.0);
    scratch.s_dz.resize(site_cap.max(scratch.s_dz.len()), 0.0);
    scratch.s_qq.resize(site_cap.max(scratch.s_qq.len()), 0.0);
    scratch.s_ii.resize(site_cap.max(scratch.s_ii.len()), 0);
    scratch.s_jj.resize(site_cap.max(scratch.s_jj.len()), 0);
    // Hoist every hot array into a local slice: indexed stores through the
    // `Vec`s re-read pointer and length from memory on each access (the
    // optimizer cannot prove the stores leave the headers intact), which
    // dominated the pack loops before this.
    let pi = &mut scratch.pi[..];
    let pj = &mut scratch.pj[..];
    let pdx = &mut scratch.pdx[..];
    let pdy = &mut scratch.pdy[..];
    let pdz = &mut scratch.pdz[..];
    let pr2 = &mut scratch.pr2[..];
    let lj_dx = &mut scratch.lj_dx[..];
    let lj_dy = &mut scratch.lj_dy[..];
    let lj_dz = &mut scratch.lj_dz[..];
    let lj_r2 = &mut scratch.lj_r2[..];
    let lj_i = &mut scratch.lj_i[..];
    let lj_j = &mut scratch.lj_j[..];
    let s_dx = &mut scratch.s_dx[..];
    let s_dy = &mut scratch.s_dy[..];
    let s_dz = &mut scratch.s_dz[..];
    let s_qq = &mut scratch.s_qq[..];
    let s_ii = &mut scratch.s_ii[..];
    let s_jj = &mut scratch.s_jj[..];
    let out_fx = &mut out.fx[..];
    let out_fy = &mut out.fy[..];
    let out_fz = &mut out.fz[..];
    let n32 = n as u32;
    let mut nlj = 0usize;
    let mut ns = 0usize;
    // Stage 1a: candidate filter, branch-free via cursor compaction (every
    // slot is written, the cursor advances only on inclusion) so the
    // ~half-rejecting reach test costs no mispredicts. The guard fallback
    // branch stays: it fires ~never and predicts perfectly.
    let mut np = 0usize;
    for i in 0..n {
        let bi = &sites[i];
        let (xi, yi, zi) = (bi[0], bi[1], bi[2]);
        let i32_ = i as u32;
        for &j32 in &cols[row_start[i] as usize..row_start[i + 1] as usize] {
            let j = j32 as usize;
            let bj = &sites[j];
            let (rx, ry, rz) = (xi - bj[0], yi - bj[1], zi - bj[2]);
            let mut dx = rx - l * (rx * inv_l).round();
            let mut dy = ry - l * (ry * inv_l).round();
            let mut dz = rz - l * (rz * inv_l).round();
            if dx.abs() >= guard || dy.abs() >= guard || dz.abs() >= guard {
                dx = min_image(rx, l);
                dy = min_image(ry, l);
                dz = min_image(rz, l);
            }
            let r2 = dx * dx + dy * dy + dz * dz;
            pi[np] = i32_;
            pj[np] = j32;
            pdx[np] = dx;
            pdy[np] = dy;
            pdz[np] = dz;
            pr2[np] = r2;
            np += (r2 <= p.reach2) as usize;
        }
    }

    // Stage 1b: per-survivor site pack. Every iteration does the full site
    // work with fixed trip counts — no data-dependent control flow at all,
    // so nothing mispredicts. The nine site combos are processed as three
    // lane-padded F64x4 rows (lane 3 a pad the compaction skips) — a width
    // the vector units handle natively, where a `[f64; 9]` loop lowers to
    // scalar shuffle soup.
    let rc2_v = F64x4::splat(p.rc2);
    for k in 0..np {
        let (i32_, j32) = (pi[k], pj[k]);
        let (i, j) = (i32_ as usize, j32 as usize);
        let (dx, dy, dz, r2) = (pdx[k], pdy[k], pdz[k], pr2[k]);
        let bi = &sites[i];
        let bj = &sites[j];
        // Cursor compaction for the LJ subset: write unconditionally,
        // advance on the (inclusive, matching the oracle) cutoff test.
        lj_dx[nlj] = dx;
        lj_dy[nlj] = dy;
        lj_dz[nlj] = dz;
        lj_r2[nlj] = r2;
        lj_i[nlj] = i32_;
        lj_j[nlj] = j32;
        nlj += (r2 <= p.rc2) as usize;
        // Lattice shift bringing molecule j next to molecule i.
        let sx = bi[0] - dx - bj[0];
        let sy = bi[1] - dy - bj[1];
        let sz = bi[2] - dz - bj[2];
        let vx = F64x4([bj[3] + sx, bj[6] + sx, bj[9] + sx, 0.0]);
        let vy = F64x4([bj[4] + sy, bj[7] + sy, bj[10] + sy, 0.0]);
        let vz = F64x4([bj[5] + sz, bj[8] + sz, bj[11] + sz, 0.0]);
        for si in 0..3 {
            let rx = F64x4::splat(bi[3 * si + 3]) - vx;
            let ry = F64x4::splat(bi[3 * si + 4]) - vy;
            let rz = F64x4::splat(bi[3 * si + 5]) - vz;
            let r2row = rx * rx + ry * ry + rz * rz;
            let diff = r2row - rc2_v;
            let ii = (si as u32 + 1) * n32 + i32_;
            // Branchless compaction of the row's three real lanes (lane 3
            // is pad): write unconditionally, advance the cursor on the
            // strict cutoff test. The test uses the sign bit of r² − rc² —
            // the subtraction is correctly rounded, so its sign equals the
            // comparison everywhere except exact equality, where it yields
            // +0 → excluded, exactly the strict `<` the oracle applies. A
            // fixed 3-lane trip count keeps the loop free of the
            // data-dependent exit branch a find-first-set walk over a hit
            // mask would mispredict once per pair.
            for lane in 0..3 {
                s_dx[ns] = rx.0[lane];
                s_dy[ns] = ry.0[lane];
                s_dz[ns] = rz.0[lane];
                s_qq[ns] = p.qq[4 * si + lane];
                s_ii[ns] = ii;
                s_jj[ns] = (lane as u32 + 1) * n32 + j32;
                ns += ((diff.0[lane].to_bits() >> 63) & 1) as usize;
            }
        }
    }

    let mut lane_batches = 0u64;

    // Stage 2a: LJ lane math, scattering each chunk's forces while they
    // are still in registers. Potential and site-virial (d²·s — for O–O
    // pairs the site displacement IS the molecular one) partials
    // accumulate per lane; folded in fixed order at the end.
    let mut lj_pot = F64x4::splat(0.0);
    let mut lj_vir = F64x4::splat(0.0);
    let mut lj_pot_tail = 0.0;
    let mut lj_vir_tail = 0.0;
    {
        // Returns (potential, force scale s): F = d · s.
        let lj_body = |d2: F64x4| -> (F64x4, F64x4) {
            let inv_r2 = d2.recip();
            let inv_r = inv_r2.sqrt();
            let r = d2 * inv_r;
            let inv_r6 = inv_r2 * inv_r2 * inv_r2;
            let inv_r12 = inv_r6 * inv_r6;
            let a = F64x4::splat(p.lj_a);
            let b = F64x4::splat(p.lj_b);
            let pot = a * inv_r12 - b * inv_r6 - F64x4::splat(p.lj_e_rc)
                + (r - F64x4::splat(p.rc)) * F64x4::splat(p.lj_f_rc);
            let fr = (F64x4::splat(12.0) * a * inv_r12 - F64x4::splat(6.0) * b * inv_r6) * inv_r;
            let s = (fr - F64x4::splat(p.lj_f_rc)) * inv_r;
            (pot, s)
        };
        let chunks = nlj / LANES;
        for ch in 0..chunks {
            let base = ch * LANES;
            let d2 = F64x4::load(lj_r2, base);
            let (pot, s) = lj_body(d2);
            lj_pot += pot;
            lj_vir += d2 * s;
            let fx = F64x4::load(lj_dx, base) * s;
            let fy = F64x4::load(lj_dy, base) * s;
            let fz = F64x4::load(lj_dz, base) * s;
            for lane in 0..LANES {
                let i = lj_i[base + lane] as usize;
                let j = lj_j[base + lane] as usize;
                out_fx[i] += fx.0[lane];
                out_fy[i] += fy.0[lane];
                out_fz[i] += fz.0[lane];
                out_fx[j] -= fx.0[lane];
                out_fy[j] -= fy.0[lane];
                out_fz[j] -= fz.0[lane];
            }
        }
        lane_batches += chunks as u64;
        for e in chunks * LANES..nlj {
            let d2 = lj_r2[e];
            let (pot, s) = lj_body(F64x4::splat(d2));
            let s = s.0[0];
            lj_pot_tail += pot.0[0];
            lj_vir_tail += d2 * s;
            let (i, j) = (lj_i[e] as usize, lj_j[e] as usize);
            let (fx, fy, fz) = (lj_dx[e] * s, lj_dy[e] * s, lj_dz[e] * s);
            out_fx[i] += fx;
            out_fy[i] += fy;
            out_fz[i] += fz;
            out_fx[j] -= fx;
            out_fy[j] -= fy;
            out_fz[j] -= fz;
        }
    }

    // Stage 2b: Coulomb lane math over the packed site pairs — contiguous
    // loads throughout, d² recomputed in lanes, the site-virial d²·fmag
    // accumulated alongside, and the forces scattered to their
    // precomputed slots while still in registers.
    let mut c_pot = F64x4::splat(0.0);
    let mut c_vir = F64x4::splat(0.0);
    let mut c_pot_tail = 0.0;
    let mut c_vir_tail = 0.0;
    {
        let coul_body = |d2: F64x4, qq: F64x4| -> (F64x4, F64x4) {
            let inv_d2 = d2.recip();
            let inv_r = inv_d2.sqrt();
            let r = d2 * inv_r;
            let pot = qq
                * (inv_r - F64x4::splat(p.inv_rc)
                    + (r - F64x4::splat(p.rc)) * F64x4::splat(p.inv_rc2));
            let fmag = qq * (inv_d2 - F64x4::splat(p.inv_rc2)) * inv_r;
            (pot, fmag)
        };
        let chunks = ns / LANES;
        for ch in 0..chunks {
            let base = ch * LANES;
            let dx = F64x4::load(s_dx, base);
            let dy = F64x4::load(s_dy, base);
            let dz = F64x4::load(s_dz, base);
            let d2 = dx * dx + dy * dy + dz * dz;
            let qq = F64x4::load(s_qq, base);
            let (pot, fmag) = coul_body(d2, qq);
            c_pot += pot;
            c_vir += d2 * fmag;
            let (fx, fy, fz) = (dx * fmag, dy * fmag, dz * fmag);
            for lane in 0..LANES {
                let ii = s_ii[base + lane] as usize;
                let jj = s_jj[base + lane] as usize;
                out_fx[ii] += fx.0[lane];
                out_fy[ii] += fy.0[lane];
                out_fz[ii] += fz.0[lane];
                out_fx[jj] -= fx.0[lane];
                out_fy[jj] -= fy.0[lane];
                out_fz[jj] -= fz.0[lane];
            }
        }
        lane_batches += chunks as u64;
        for e in chunks * LANES..ns {
            let (dx, dy, dz) = (s_dx[e], s_dy[e], s_dz[e]);
            let d2 = dx * dx + dy * dy + dz * dz;
            let (pot, fmag) = coul_body(F64x4::splat(d2), F64x4::splat(s_qq[e]));
            let fmag = fmag.0[0];
            c_pot_tail += pot.0[0];
            c_vir_tail += d2 * fmag;
            let ii = s_ii[e] as usize;
            let jj = s_jj[e] as usize;
            let (fx, fy, fz) = (dx * fmag, dy * fmag, dz * fmag);
            out_fx[ii] += fx;
            out_fy[ii] += fy;
            out_fz[ii] += fz;
            out_fx[jj] -= fx;
            out_fy[jj] -= fy;
            out_fz[jj] -= fz;
        }
    }

    // Stage 3: telescoped molecular-virial correction (see module docs):
    // Σₑ d_oo·fₑ = Σₑ dₑ·fₑ − Σ_{m,s} off_m(s)·F_{s,m}. Slot 0 is O itself
    // (off = 0), so only the charge slots contribute. Linear in the slot
    // forces, hence it relies on `out` having been zeroed before this call.
    let mut corr = 0.0;
    for s in 1..4 {
        let (fx, fy, fz) = (
            &out_fx[s * n..(s + 1) * n],
            &out_fy[s * n..(s + 1) * n],
            &out_fz[s * n..(s + 1) * n],
        );
        for (b, ((fx, fy), fz)) in sites.iter().zip(fx.iter().zip(fy).zip(fz)) {
            corr +=
                (b[3 * s] - b[0]) * fx + (b[3 * s + 1] - b[1]) * fy + (b[3 * s + 2] - b[2]) * fz;
        }
    }
    out.virial += (lj_vir.fold_sum() + lj_vir_tail) + (c_vir.fold_sum() + c_vir_tail) - corr;
    out.potential += (lj_pot.fold_sum() + lj_pot_tail) + (c_pot.fold_sum() + c_pot_tail);

    lane_batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matches_pair_list() {
        let pairs = [(0u32, 2u32), (0, 3), (2, 3), (4, 5)];
        let csr = Csr::from_pairs(6, &pairs);
        assert_eq!(csr.row_start, vec![0, 2, 2, 3, 3, 4, 4]);
        assert_eq!(csr.cols, vec![2, 3, 3, 5]);
    }
}
