"""Pose from 2D-3D correspondences: minimal solve, refinement, robust loop.

The minimal stage is Grunert's three-point solution (P3P) in closed
form, the sample's other points choosing among its roots; refinement runs
Levenberg-Marquardt with rotation increments in the tangent space, and
stops converged at a short step or where a try moves the cost by no more
than rounding.  The robust loop scores hypotheses with a truncated
quadratic (MSAC), fits each point set once and is deterministic for a
fixed seed.  Inliers are counted in a band scaled to the pixel noise that
the leading hypothesis's residuals show, in the spirit of MAGSAC++'s
sigma-consensus (Barath et al., CVPR 2020), so that noise is not taken
for outliers and the adaptive exit fires on noisy maps.  A nearly planar
support also gets the planar two-fold check of IPPE (Collins and
Bartoli, IJCV 2014): the mirrored pose is polished and kept when it fits
clearly better.

The robust loop works on blocks of minimal samples rather than one at a
time.  Block sizes double (1, 2, 4, ...) up to ``MAX_BLOCK``, and never
exceed the number of samples the adaptive bound still asks for, so a
loop that exits after a few samples solves few extra ones.  A block's
P3P solves run as one set of array operations, and its hypotheses are
scored in chunks of at most ``SCORE_CHUNK`` hypothesis-point pairs, so
the temporaries stay near a megabyte whatever the block and map size.
The ordered part of the loop (local optimization, the best hypothesis,
its noise band and the adaptive exit) then walks the block sample by
sample.  The samples come from the same stream as one-at-a-time draws,
so the loop stops at the same sample and returns what a
one-sample-at-a-time loop returns.

Refinement is a single-pose kernel.  A ``CorrSet`` keeps its model points
as contiguous (3, N) rows, so a pose maps them as ``R @ P + t`` (scoring
maps a chunk of hypotheses as (B, 3, 3) @ (3, N)), and its residuals are
one (2, N) array against the pixels' offsets from the principal point.
LM builds its 6 x 6 normal equations from that array, and turns each
rotation increment into a matrix in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import MIN_DEPTH, CameraIntrinsics, Pose
from .errors import NoConsensus, NonFiniteResidual, TooFewCorrespondences
from .meshes import denormalize_coords
from .raster import CHUNK_PIXELS, CorrespondenceMap

MIN_CORRESPONDENCES = 6
# A sample's first three points count as collinear where the sine of the
# angle they make at the first one is at most this.
MIN_SINE = 1e-9
# Pixel threshold of the MSAC score, and the floor of the noise band.
INLIER_PX = 2.0
DEFAULT_MAX_ITERS = 400
# Local optimization re-fits a leading hypothesis on the points it catches
# inside successively tighter bands (multiples of the inlier threshold).
LO_BANDS = (16.0, 4.0, 1.0)
# Under 2-D Gaussian pixel noise of scale sigma the residual norms are
# Rayleigh: their median is sqrt(2 ln 2) sigma and 99 % of them fall
# within sqrt(-2 ln 0.01) sigma = 3.035 sigma.
RAYLEIGH_MEDIAN = math.sqrt(2.0 * math.log(2.0))
BAND_SIGMAS = math.sqrt(-2.0 * math.log(0.01))
# Robust loop gives up below this inlier fraction.
MIN_INLIER_RATIO = 0.2
# A support counts as nearly planar when its smallest covariance
# eigenvalue is below this share of the middle one.
PLANAR_RATIO = 0.05
# The other planar solution replaces the fit only below this cost share.
FLIP_GAIN = 0.95
# Confidence level for the adaptive iteration bound.
RANSAC_CONFIDENCE = 0.999
LM_MAX_ITERS = 100
LM_TOL = 1e-10
LM_RTOL = 1e-12  # a cost change within this share of the cost is rounding
# Damping increases tried per LM iteration before it counts as stalled.
LM_DAMPING_TRIES = 8
# Minimal samples solved together at most; blocks double up to this.
MAX_BLOCK = 256
# Hypothesis-point pairs scored together (the rasterizer's chunk bound).
SCORE_CHUNK = CHUNK_PIXELS

# The translation parameters' Jacobian rows, before the f / Z scale.
_UNIT_UV = np.eye(2)[:, :, None]


@dataclass(frozen=True, init=False)
class CorrSet:
    """Paired model points (meters) and pixel observations, finite.

    Both are kept as contiguous rows: ``P`` (3, N) and ``uv`` (2, N).
    ``pts3d`` and ``pts2d`` are their (N, 3) and (N, 2) views.
    """

    P: np.ndarray
    uv: np.ndarray

    def __init__(self, pts3d, pts2d):
        p3 = np.asarray(pts3d, dtype=float)
        p2 = np.asarray(pts2d, dtype=float)
        if p3.ndim != 2 or p3.shape[1] != 3:
            raise ValueError("pts3d must be (N, 3)")
        if p2.shape != (p3.shape[0], 2):
            raise ValueError("pts2d must be (N, 2) matching pts3d")
        if not (np.isfinite(p3).all() and np.isfinite(p2).all()):
            raise ValueError("correspondences must be finite")
        object.__setattr__(self, "P", np.ascontiguousarray(p3.T))
        object.__setattr__(self, "uv", np.ascontiguousarray(p2.T))

    @property
    def pts3d(self) -> np.ndarray:
        return self.P.T

    @property
    def pts2d(self) -> np.ndarray:
        return self.uv.T

    @property
    def n(self) -> int:
        return self.P.shape[1]

    def subset(self, index: np.ndarray) -> "CorrSet":
        """The pairs at the indices ``index``, not validated again."""
        sub = object.__new__(CorrSet)
        object.__setattr__(sub, "P", self.P.take(index, axis=1))
        object.__setattr__(sub, "uv", self.uv.take(index, axis=1))
        return sub


@dataclass(frozen=True)
class PnPResult:
    """Robust solve outcome: pose plus support statistics.

    ``samples`` counts the minimal samples the robust loop went through
    before it stopped (0 when the result did not come from the loop).
    """

    pose: Pose
    inlier_count: int
    outlier_count: int
    mean_reproj_err: float
    converged: bool
    samples: int = 0

    @property
    def inlier_ratio(self) -> float:
        total = self.inlier_count + self.outlier_count
        return self.inlier_count / total if total else 0.0


def pairs_from_map(
    cmap: CorrespondenceMap, bbox3d: tuple[np.ndarray, np.ndarray]
) -> CorrSet:
    """Turn a correspondence map into explicit 2D-3D pairs.

    Valid pixels denormalize through ``bbox3d`` into model coordinates;
    their pixel centers map from crop coordinates back to the full image.

    Raises:
        TooFewCorrespondences: fewer than 6 valid pixels.
    """
    ii, jj = np.nonzero(cmap.valid.data)
    if ii.size < MIN_CORRESPONDENCES:
        raise TooFewCorrespondences(
            f"map holds {ii.size} valid pixels, need {MIN_CORRESPONDENCES}"
        )
    pts3d = denormalize_coords(cmap.data[ii, jj].astype(float), bbox3d)
    crop = cmap.crop
    u = crop.x0 + (jj + 0.5) * (crop.w / cmap.width)
    v = crop.y0 + (ii + 0.5) * (crop.h / cmap.height)
    return CorrSet(pts3d, np.stack([u, v], axis=1))


def _project(pts3d, pts2d, camera, R, t):
    """Points at or behind ``MIN_DEPTH`` and residuals in u and in v, all
    (B, M), of poses (B, 3, 3) and (B, 3) on point sets of their own,
    (B, M, 3) and (B, M, 2); the residuals of masked points are finite."""
    pc = pts3d @ R.transpose(0, 2, 1) + t[:, None, :]
    z = pc[..., 2]
    behind = z <= MIN_DEPTH
    z = np.where(behind, 1.0, z)
    du = camera.f * pc[..., 0] / z + camera.px - pts2d[..., 0]
    dv = camera.f * pc[..., 1] / z + camera.py - pts2d[..., 1]
    return behind, du, dv


def _offsets(corr, camera):
    """The (2, N) pixel observations as offsets from the principal point."""
    return corr.uv - np.array([[camera.px], [camera.py]])


def _residuals(P, obs, f, R, t):
    """Camera points (3, N) of one pose and its stacked (2, N) residuals
    against the offsets ``obs``; None in place of the residuals when a
    point is at or behind ``MIN_DEPTH``."""
    pc = R @ P + t[:, None]
    z = pc[2]
    if z.min() <= MIN_DEPTH:
        return pc, None
    return pc, pc[:2] * (f / z) - obs


def _reproj_errors(corr: CorrSet, camera: CameraIntrinsics, R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-point pixel errors of a pose, (3, 3) and (3,) to (N,), or of a
    stack of them, (B, 3, 3) and (B, 3) to (B, N); inf behind the camera."""
    pc = R @ corr.P + t[..., None]
    z = pc[..., 2, :]
    behind = z <= MIN_DEPTH
    d = pc[..., :2, :] * (camera.f / np.where(behind, 1.0, z))[..., None, :] - _offsets(corr, camera)
    err = np.sqrt((d * d).sum(axis=-2))
    err[behind] = np.inf
    return err


def _quartic_roots(A):
    """Real roots of the quartics ``A[:, 0] x^4 + ... + A[:, 4]``, (B, 4),
    NaN in place of complex ones.

    Ferrari's method in real arithmetic: the largest real root m of the
    resolvent cubic (Cardano's or the trigonometric form) splits the
    depressed quartic y^4 + p y^2 + q y + r into two real quadratics.
    """
    b, c, d, e = (A[:, 1:] / A[:, :1]).T
    bb = b * b
    p = c - 0.375 * bb
    q = d - 0.5 * b * c + 0.125 * bb * b
    r = e - 0.25 * b * d + 0.0625 * bb * c - 0.01171875 * bb * bb
    # resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8, depressed by m = z - p/3
    P = -p * p / 12.0 - r
    Q = -p * p * p / 108.0 + p * r / 3.0 - 0.125 * q * q
    disc = 0.25 * Q * Q + P * P * P / 27.0
    one = -np.where(Q < 0.0, -1.0, 1.0) * np.cbrt(np.abs(0.5 * Q) + np.sqrt(np.maximum(disc, 0.0)))
    one -= P / (3.0 * np.where(one == 0.0, 1.0, one))
    rad = np.sqrt(np.maximum(-P / 3.0, 0.0))
    cos = np.clip(-0.5 * Q / np.where(rad == 0.0, 1.0, rad) ** 3, -1.0, 1.0)
    m = np.maximum(np.where(disc > 0.0, one, 2.0 * rad * np.cos(np.arccos(cos) / 3.0)) - p / 3.0, 0.0)
    # y^4 + p y^2 + q y + r = (y^2 + p/2 + m)^2 - (s y - w)^2, s = sqrt(2 m)
    s = np.sqrt(2.0 * m)
    w = np.where(q < 0.0, -1.0, 1.0) * np.sqrt(np.maximum((m + 0.5 * p) ** 2 - r, 0.0))
    h = -2.0 * (m + p)
    r1 = np.sqrt(np.where(h >= 4.0 * w, h - 4.0 * w, np.nan))
    r2 = np.sqrt(np.where(h >= -4.0 * w, h + 4.0 * w, np.nan))
    return 0.5 * np.stack([s + r1, s - r1, r2 - s, -s - r2], axis=1) - 0.25 * b[:, None]


def _p3p_depths(P, ray):
    """Depths along the unit ``ray``s (B, 3, 3) of the model points ``P``
    (B, 3, 3): (B, 4, 3), one row per real root, NaN where there is none.

    Grunert's solution, in Haralick et al.'s notation (IJCV 1994): with
    s2 = u s1 and s3 = v s1, the law of cosines on the three sides gives
    a quartic in v and u as a function of v.  Two Gauss-Newton steps on
    the three side equations then restore the digits that the quartic
    loses when the depths are nearly equal.
    """
    # squared sides opposite each point, and cosines between the other rays
    side = P[:, [1, 0, 0]] - P[:, [2, 2, 1]]
    a2, b2, c2 = (side * side).sum(axis=2).T
    ca, cb, cg = (ray[:, [1, 0, 0]] * ray[:, [2, 2, 1]]).sum(axis=2).T
    amc = (a2 - c2) / b2
    apc = (a2 + c2) / b2
    A = np.stack(
        [
            (amc - 1.0) ** 2 - 4.0 * c2 / b2 * ca * ca,
            4.0 * (amc * (1.0 - amc) * cb - (1.0 - apc) * ca * cg + 2.0 * c2 / b2 * ca * ca * cb),
            2.0 * (amc * amc - 1.0 + 2.0 * amc * amc * cb * cb + 2.0 * (b2 - c2) / b2 * ca * ca
                   - 4.0 * apc * ca * cb * cg + 2.0 * (b2 - a2) / b2 * cg * cg),
            4.0 * (-amc * (1.0 + amc) * cb + 2.0 * a2 / b2 * cg * cg * cb - (1.0 - apc) * ca * cg),
            (1.0 + amc) ** 2 - 4.0 * a2 / b2 * cg * cg,
        ],
        axis=1,
    )
    a2, b2, c2, ca, cb, cg, amc = (x[:, None] for x in (a2, b2, c2, ca, cb, cg, amc))
    v = _quartic_roots(A)
    u = ((amc - 1.0) * v * v - 2.0 * amc * cb * v + 1.0 + amc) / (2.0 * (cg - v * ca))
    s1 = np.sqrt(b2 / (1.0 + v * v - 2.0 * v * cb))
    s2, s3 = u * s1, v * s1
    for _ in range(2):
        # halved residuals and Jacobian [[j1, k1, 0], [j2, 0, l2], [0, k3, l3]]
        f1 = 0.5 * (s1 * s1 + s2 * s2 - c2) - cg * s1 * s2
        f2 = 0.5 * (s1 * s1 + s3 * s3 - b2) - cb * s1 * s3
        f3 = 0.5 * (s2 * s2 + s3 * s3 - a2) - ca * s2 * s3
        j1, k1 = s1 - cg * s2, s2 - cg * s1
        j2, l2 = s1 - cb * s3, s3 - cb * s1
        k3, l3 = s2 - ca * s3, s3 - ca * s2
        det = -j1 * l2 * k3 - k1 * j2 * l3
        s1, s2, s3 = (
            s1 - (k1 * (l2 * f3 - l3 * f2) - f1 * l2 * k3) / det,
            s2 - (j1 * (l3 * f2 - l2 * f3) - f1 * j2 * l3) / det,
            s3 - (j2 * (f1 * k3 - k1 * f3) - j1 * k3 * f2) / det,
        )
    return np.stack([s1, s2, s3], axis=2)


def _p3p(pts3d, pts2d, camera):
    """Stacked minimal solves: (B, M, 3) and (B, M, 2) to (R, t, ok).

    Each sample's first three points give up to four poses (see
    ``_p3p_depths``): the three model points aligned to their camera
    points by the nearest rotation (Kabsch).  Poses that put one of the
    M points behind the camera are dropped, and of the others the one
    with the smallest squared reprojection error on the remaining points
    is kept.  ``ok`` is False where the three points are collinear (or
    repeated) or no pose is left; that pose is then meaningless.
    """
    B = pts3d.shape[0]
    P = pts3d[:, :3]
    ray = np.concatenate(
        [(pts2d[:, :3] - (camera.px, camera.py)) / camera.f, np.ones((B, 3, 1))], axis=2
    )
    ray /= np.sqrt((ray * ray).sum(axis=2))[..., None]
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    cross = e1[:, [1, 2, 0]] * e2[:, [2, 0, 1]] - e1[:, [2, 0, 1]] * e2[:, [1, 2, 0]]
    flat = (cross * cross).sum(axis=1) <= MIN_SINE**2 * (e1 * e1).sum(axis=1) * (e2 * e2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        X = _p3p_depths(P, ray)[..., None] * ray[:, None]
        root = np.isfinite(X).all(axis=(2, 3)) & ~flat[:, None]
    # a missing root aligns the points to themselves; its pose is dropped
    X = np.where(root[..., None, None], X, P[:, None]).reshape(4 * B, 3, 3)
    P = np.repeat(P, 4, axis=0)
    mx, mp = X.mean(axis=1), P.mean(axis=1)
    U, _, Vt = np.linalg.svd((X - mx[:, None]).transpose(0, 2, 1) @ (P - mp[:, None]))
    R = _proper(U, Vt)
    t = mx - (R @ mp[..., None])[..., 0]
    behind, du, dv = _project(
        np.repeat(pts3d, 4, axis=0), np.repeat(pts2d, 4, axis=0), camera, R, t
    )
    cost = (du[:, 3:] ** 2).sum(axis=1) + (dv[:, 3:] ** 2).sum(axis=1)
    cost = np.where(root.ravel() & ~behind.any(axis=1), cost, np.inf).reshape(B, 4)
    pick = cost.argmin(axis=1)
    k = 4 * np.arange(B) + pick
    return R[k], t[k], np.isfinite(cost[np.arange(B), pick])


def _proper(U, Vt):
    """Nearest rotations ``U diag(1, 1, d) Vt``, ``d`` fixing the sign, of
    one SVD or of a stack of them."""
    d = np.where(np.linalg.det(U @ Vt) > 0, 1.0, -1.0)
    U = U.copy()
    U[..., 2] *= d[..., None]
    return U @ Vt


def _rodrigues(w):
    """Rotation matrix exp([w]x) of one tangent vector, closed form:
    I + sin(a) K + (1 - cos(a)) K^2 with K = [w / a]x and a = |w|."""
    x, y, z = w.tolist()
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-12:
        s, c = 1.0, 0.0  # exp([w]x) ~ I + [w]x: "axis" w, sin 1, 1 - cos 0
    else:
        s, c = math.sin(angle), 1.0 - math.cos(angle)
        x, y, z = x / angle, y / angle, z / angle
    # K^2 has diagonal -(y^2 + z^2), ... and off-diagonal entries x y, ...
    return np.array([
        [1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y],
        [c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x],
        [c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y)],
    ])


def _normal_equations(pc, t, r, f):
    """Gauss-Newton system (H, g) = (J^T J, J^T r) of one pose.

    ``pc`` are its (3, N) camera points, ``t`` its translation and ``r``
    its stacked (2, N) residuals in u and in v.  With camera point
    (X, Y, Z), rotated model point q = (X, Y, Z) - t, x = X / Z and
    y = Y / Z, a left rotation increment w and a translation increment dt
    move the residuals by
    f/Z [-qy x, qz + qx x, -qy, 1, 0, -x] . (w, dt) in u and
    f/Z [-qy y - qz, qx y, qx, 0, 1, -y] . (w, dt) in v.
    """
    n = pc.shape[1]
    xy = pc[:2] / pc[2]
    qx, qy, qz = pc - t[:, None]
    nqy = -qy
    # one contiguous row per parameter: u terms, then v terms
    J = np.empty((6, 2, n))
    np.multiply(xy, nqy, out=J[0])
    J[0, 1] -= qz
    np.multiply(xy, qx, out=J[1])
    J[1, 0] += qz
    J[2, 0] = nqy
    J[2, 1] = qx
    J[3:5] = _UNIT_UV
    np.negative(xy, out=J[5])
    J *= f / pc[2]
    J = J.reshape(6, 2 * n)
    # with a copy matmul takes gemm, several times faster here than the
    # syrk it takes for J @ J.T
    return J @ J.copy().T, J @ r.ravel()


def _lm(corr: CorrSet, camera: CameraIntrinsics, init: Pose, max_iters: int, tol: float) -> tuple[Pose, bool]:
    """Levenberg-Marquardt over (rotation tangent, translation).

    Damping starts at 1e-3, falls by 3 after an accepted step and rises by
    10 after a rejected one; a step is accepted if it solves, no point
    ends behind the camera and the cost does not rise.  An iteration ends
    at the first accepted step, or after ``LM_DAMPING_TRIES`` rejected
    ones, which stalls the run.  The run stops converged when an accepted
    step is shorter than ``tol`` or when a try that keeps every point in
    front moves the cost by at most ``LM_RTOL`` of it (the minimum, up to
    rounding), and unconverged when it stalls or after ``max_iters``.

    Raises:
        NonFiniteResidual: the start pose has a point behind the camera or
            a non-finite residual.
    """
    P, obs, f = corr.P, _offsets(corr, camera), camera.f
    R, t = init.R, init.t
    pc, r = _residuals(P, obs, f, R, t)
    if r is None or not np.isfinite(r).all():
        raise NonFiniteResidual("refinement cannot start from this pose")
    cost = np.vdot(r, r)
    lam = 1e-3
    converged = False
    for _ in range(max_iters):
        H, g = _normal_equations(pc, t, r, f)
        g = -g
        D = np.diag(np.maximum(H.diagonal(), 1e-12))
        stepped = False
        for _ in range(LM_DAMPING_TRIES):
            try:
                delta = np.linalg.solve(H + lam * D, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            R_new = _rodrigues(delta[:3]) @ R
            t_new = t + delta[3:]
            pc_new, r_new = _residuals(P, obs, f, R_new, t_new)
            if r_new is None:
                lam *= 10.0
                continue
            cost_new = np.vdot(r_new, r_new)
            converged = bool(abs(cost_new - cost) <= LM_RTOL * cost)
            if not cost_new <= cost:
                if converged:
                    break
                lam *= 10.0
                continue
            R, t, pc, r, cost = R_new, t_new, pc_new, r_new, cost_new
            lam = max(lam / 3.0, 1e-12)
            stepped = True
            converged = converged or bool(delta @ delta < tol * tol)
            break
        if converged or not stepped:
            break
    # re-orthonormalize against drift
    U, _, Vt = np.linalg.svd(R)
    return Pose(R=_proper(U, Vt), t=t), converged


def _draw(rng, n, count):
    """The next ``count`` minimal samples of the stream, as rows."""
    return np.array([rng.choice(n, size=MIN_CORRESPONDENCES, replace=False) for _ in range(count)])


def _score(corr, camera, R, t):
    """MSAC scores of hypotheses (R, t), ``SCORE_CHUNK`` hypothesis-point
    pairs at a time."""
    B = R.shape[0]
    thr_sq = INLIER_PX * INLIER_PX
    score = np.empty(B)
    step = max(1, SCORE_CHUNK // corr.n)
    for s in range(0, B, step):
        errs = _reproj_errors(corr, camera, R[s : s + step], t[s : s + step])
        score[s : s + step] = np.minimum(errs * errs, thr_sq).sum(axis=1)
    return score


def _hypotheses(corr, camera, samples):
    """Hypotheses of a block of minimal samples, with MSAC scores.

    Each sample is solved by P3P on its first three points, the other
    three choosing among the solutions (see ``_p3p``).  ``ok`` is False
    for samples left without a pose; only the others are scored over the
    whole map.
    """
    R, t, ok = _p3p(corr.pts3d[samples], corr.pts2d[samples], camera)
    score = np.full(len(samples), np.inf)
    score[ok] = _score(corr, camera, R[ok], t[ok])
    return R, t, ok, score


def _noise_band(errs):
    """Inlier band of a hypothesis, from the noise scale its residuals show.

    The scale is the median residual below ``LO_BANDS[1] * INLIER_PX``
    over the Rayleigh median; the band holds 99 % of 2-D Gaussian
    residuals of that scale, clamped to [``INLIER_PX``, the same cap].
    The cap keeps a far-off hypothesis from widening its own band.
    """
    cap = LO_BANDS[1] * INLIER_PX
    near = errs[errs < cap]
    if near.size == 0:
        return INLIER_PX
    # the upper middle, by a plain sort: np.median would import numpy.ma,
    # and numpy's own sorts and selections page in their SIMD kernels
    mid = sorted(near.tolist())[near.size // 2]
    return min(max(BAND_SIGMAS * mid / RAYLEIGH_MEDIAN, INLIER_PX), cap)


def _flipped(corr, camera, pose, errs, tau):
    """The other planar solution of ``pose`` if it fits clearly better.

    Only a nearly planar camera-frame support (the points within ``tau``
    under ``pose``, whose errors are ``errs``) has one: its normal,
    reflected about the viewing ray to its centroid, gives a pose that
    projects the support almost alike (Collins and Bartoli's IPPE).  That
    pose, rotated about the centroid and polished on the support, is
    returned as (pose, converged, errors) when its ``tau``-truncated cost
    is below ``FLIP_GAIN`` times that of ``pose``; otherwise None.
    """
    inliers = np.flatnonzero(errs < tau)
    pc = corr.pts3d[inliers] @ pose.R.T + pose.t
    c = pc.mean(axis=0)
    d = pc - c
    # the scatter matrix's singular values are its eigenvalues, descending
    _, w, Vt = np.linalg.svd(d.T @ d)
    if not w[2] < PLANAR_RATIO * w[1]:
        return None
    n = Vt[2]
    ray = c / np.linalg.norm(c)
    cos = float(n @ ray)
    axis = np.cross(n, 2.0 * cos * ray - n)
    s = float(np.linalg.norm(axis))
    if s == 0.0:
        return None
    # turn n onto its reflection n', about n x n': cos(n, n') = 2 cos^2 - 1
    Q = _rodrigues(axis * (math.atan2(s, 2.0 * cos * cos - 1.0) / s))
    start = Pose(R=Q @ pose.R, t=Q @ (pose.t - c) + c)
    try:
        flip, converged = _lm(corr.subset(inliers), camera, start, LM_MAX_ITERS, LM_TOL)
    except NonFiniteResidual:
        return None
    ferrs = _reproj_errors(corr, camera, flip.R, flip.t)
    tau_sq = tau * tau
    if np.minimum(ferrs * ferrs, tau_sq).sum() < FLIP_GAIN * np.minimum(errs * errs, tau_sq).sum():
        return flip, converged, ferrs
    return None


def pnp_ransac(
    corr: CorrSet, camera: CameraIntrinsics, max_iters: int = DEFAULT_MAX_ITERS, seed: int = 0
) -> PnPResult:
    """Robust pose from contaminated correspondences.

    Minimal six-point samples are solved by P3P on three of their points,
    the other three choosing among its solutions (see ``_p3p``), and
    scored with a truncated quadratic: points within ``INLIER_PX``
    contribute their squared error, the others a constant
    ``INLIER_PX**2``.  A sample left without a pose in front of the
    camera is dropped unscored.  Hypotheses tie-break on (score, index).  Whenever a sample takes the
    lead it is locally optimized: re-fit on the points it catches inside
    successively tighter error bands, each stage kept only if it lowers
    the score; no stage re-fits the points its hypothesis was fit on.

    Each new leader then gets a noise band ``tau`` (see ``_noise_band``):
    at least ``INLIER_PX``, wider when its residuals show more pixel
    noise, at most ``LO_BANDS[1] * INLIER_PX``.  Its share of points
    within ``tau`` sets the adaptive bound: the sample loop ends once
    further samples are pointless at 99.9 % confidence.  The best
    hypothesis is refined on its points within ``tau``, unless it is the
    converged fit of just those points already.  When that support is
    nearly planar, the other planar solution is polished too and kept if
    it fits clearly better (see ``_flipped``).  Inlier and outlier counts
    and the mean inlier error are those within ``tau`` under the final
    pose.

    Samples are drawn and solved in blocks (see the module docstring);
    the result is that of taking them one at a time.

    Raises:
        TooFewCorrespondences: fewer than six pairs.
        NoConsensus: no usable sample, or the best hypothesis holds
            fewer than 20 % of the points within its band.
    """
    n = corr.n
    if n < MIN_CORRESPONDENCES:
        raise TooFewCorrespondences(f"need {MIN_CORRESPONDENCES} pairs, got {n}")
    rng = np.random.default_rng(seed)
    thr_sq = INLIER_PX * INLIER_PX
    best_score = best_raw = math.inf
    best_pose = best_errs = None
    best_fit = no_fit = np.zeros(n, bool)  # the set best_pose is the converged fit of
    tau = INLIER_PX
    needed = max_iters
    i = 0
    block = 1
    while i < min(max_iters, needed):
        count = min(block, min(max_iters, needed) - i)
        block = min(2 * block, MAX_BLOCK)
        samples = _draw(rng, n, count)
        R, t, ok, raw = _hypotheses(corr, camera, samples)
        for k in range(count):
            i += 1
            # a sample that does not beat the best raw score cannot beat
            # the best score either: local optimization only lowers it
            if ok[k] and raw[k] < best_raw:
                score = best_raw = float(raw[k])
                hyp = Pose(R=R[k], t=t[k])
                errs = _reproj_errors(corr, camera, hyp.R, hyp.t)
                # the band mask hyp was last fit on, and whether that converged
                fit, fit_converged = no_fit, False
                # polish on the hypothesis's own support through shrinking
                # bands; noise in the minimal sample otherwise caps how many
                # inliers it can collect
                for mult in LO_BANDS:
                    mask = errs < mult * INLIER_PX
                    if int(mask.sum()) < MIN_CORRESPONDENCES or np.array_equal(mask, fit):
                        continue
                    try:
                        local, local_converged = _lm(
                            corr.subset(np.flatnonzero(mask)), camera, hyp, LM_MAX_ITERS, LM_TOL
                        )
                    except NonFiniteResidual:
                        break
                    lerrs = _reproj_errors(corr, camera, local.R, local.t)
                    lscore = float(np.minimum(lerrs * lerrs, thr_sq).sum())
                    if lscore < score:
                        hyp, errs, score = local, lerrs, lscore
                        fit, fit_converged = mask, local_converged
                if score < best_score:
                    best_score, best_pose, best_errs = score, hyp, errs
                    best_fit = fit if fit_converged else no_fit
                    tau = _noise_band(errs)
                    q = float((errs < tau).mean()) ** MIN_CORRESPONDENCES
                    if q >= 1.0:
                        needed = i
                    elif q > 1e-12:  # below that the bound exceeds max_iters anyway
                        bound = math.log(1.0 - RANSAC_CONFIDENCE) / math.log(1.0 - q)
                        needed = min(max_iters, int(math.ceil(bound)))
                    if i >= needed:
                        break
    if best_pose is None:
        raise NoConsensus("every sample was degenerate")
    inliers = best_errs < tau
    if float(inliers.mean()) < MIN_INLIER_RATIO:
        raise NoConsensus(f"best hypothesis supports only {inliers.mean():.1%} of the data")
    if np.array_equal(inliers, best_fit):
        refined, converged = best_pose, True  # already this set's converged fit
    else:
        support = corr.subset(np.flatnonzero(inliers))
        refined, converged = _lm(support, camera, best_pose, LM_MAX_ITERS, LM_TOL)
    final_errs = _reproj_errors(corr, camera, refined.R, refined.t)
    final_inliers = final_errs < tau
    if int(final_inliers.sum()) >= MIN_CORRESPONDENCES:
        flip = _flipped(corr, camera, refined, final_errs, tau)
        if flip is not None:
            refined, converged, final_errs = flip
            final_inliers = final_errs < tau
    count = int(final_inliers.sum())
    if count < MIN_CORRESPONDENCES:
        raise NoConsensus("refinement lost the inlier support")
    return PnPResult(
        pose=refined,
        inlier_count=count,
        outlier_count=n - count,
        mean_reproj_err=float(final_errs[final_inliers].mean()),
        converged=converged,
        samples=i,
    )
