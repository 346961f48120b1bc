"""Triangle meshes, two-part hinged tool models and mesh file parsing.

Vertex coordinates are meters.  ``ArticulatedModel`` owns the hinge
formula (``moving_vertices``), the posed mesh (``articulate``) and the
FMAP normalization box (``corr_box``).  The one supported file form is
a small OBJ subset (``v x y z`` and ``f i j k`` lines, 1-based indices).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .camera import rotation_about_axis
from .errors import BBoxMismatch, DegenerateMesh, ParseError

MIN_FACE_AREA = 1e-12  # m^2
MIN_EXTENT = 1e-9  # m, per axis, for a usable bounding box
DEFAULT_ANGLE_MIN = 0.0
DEFAULT_ANGLE_MAX = 0.6  # rad
# hinge openings the articulation-free correspondence box is sampled at;
# the box normalizes every FMAP, so this fixes the FMAP format
BOX_SAMPLES = 21


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh: (N, 3) float vertices, (M, 3) int faces."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DegenerateMesh(f"vertices must be (N, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DegenerateMesh(f"faces must be (M, 3), got {f.shape}")
        if v.shape[0] < 4:
            raise DegenerateMesh(f"mesh needs at least 4 vertices, got {v.shape[0]}")
        if f.shape[0] < 1:
            raise DegenerateMesh("mesh has no faces")
        if not np.isfinite(v).all():
            raise DegenerateMesh("non-finite vertex coordinates")
        if f.min() < 0 or f.max() >= v.shape[0]:
            raise DegenerateMesh("face index out of range")
        if np.any(_face_areas(v, f) <= MIN_FACE_AREA):
            raise DegenerateMesh("mesh contains a zero-area face")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def face_areas(self) -> np.ndarray:
        return _face_areas(self.vertices, self.faces)


def _face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 0]]
    ux, uy, uz = (vertices[faces[:, 1]] - a).T
    vx, vy, vz = (vertices[faces[:, 2]] - a).T
    # np.cross's components, with its operations in its order
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


@dataclass(frozen=True)
class ArticulatedModel:
    """Two-part tool: a fixed part plus a part rotating about a hinge."""

    part_fixed: TriMesh
    part_moving: TriMesh
    hinge_origin: np.ndarray
    hinge_axis: np.ndarray
    angle_min: float = DEFAULT_ANGLE_MIN
    angle_max: float = DEFAULT_ANGLE_MAX
    class_id: int = 0

    def __post_init__(self):
        origin = np.asarray(self.hinge_origin, dtype=float).reshape(3)
        axis = np.asarray(self.hinge_axis, dtype=float).reshape(3)
        norm = math.sqrt(float(axis @ axis))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"hinge axis must be unit length, norm is {norm}")
        if not (np.isfinite(origin).all() and math.isfinite(self.angle_min) and math.isfinite(self.angle_max)):
            raise ValueError("hinge origin and angle limits must be finite")
        if not self.angle_min < self.angle_max:
            raise ValueError("angle_min must be below angle_max")
        object.__setattr__(self, "hinge_origin", origin)
        object.__setattr__(self, "hinge_axis", axis)

    def hinge_angle(self, a: float) -> float:
        """Hinge angle at the normalized opening ``a``, 0 closed .. 1 fully
        open; ValueError outside [0, 1]."""
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"articulation must be in [0, 1], got {a}")
        return self.angle_min + a * (self.angle_max - self.angle_min)

    @cached_property
    def corr_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box containing the model at every articulation.

        Correspondence maps are normalized against this articulation-free
        box so decoding never needs to know the articulation; it fixes
        the FMAP format.  The articulation is sampled at ``BOX_SAMPLES``
        evenly spaced openings, and a small pad covers arc positions
        between them.  Computed on first use, once per model.

        Raises:
            DegenerateMesh: the box of a sampled articulation vanishes
                along an axis.
        """
        fixed = self.part_fixed.vertices
        moved = moving_vertices(self, np.linspace(0.0, 1.0, BOX_SAMPLES))
        # each sampled articulation must have a box of its own, as
        # tight_bbox of the articulated mesh would check
        lo, hi = checked_bbox(
            np.minimum(fixed.min(axis=0), moved.min(axis=1)), np.maximum(fixed.max(axis=0), moved.max(axis=1))
        )
        pad = 1e-4
        return lo.min(axis=0) - pad, hi.max(axis=0) + pad


def articulate(model: ArticulatedModel, a: float) -> TriMesh:
    """Both parts as one mesh, the moving part posed at opening ``a``.

    The fixed part's vertices are passed through bit-exactly; the moving
    part rotates rigidly about the hinge.
    """
    fixed = model.part_fixed
    return TriMesh(
        np.concatenate([fixed.vertices, moving_vertices(model, a)]),
        np.concatenate([fixed.faces, model.part_moving.faces + fixed.n_vertices]),
    )


def moving_vertices(model: ArticulatedModel, a) -> np.ndarray:
    """The moving part's vertices at opening ``a``: (N, 3) for one
    opening, (K, N, 3) for a 1-D array of K openings."""
    Rh = np.reshape(
        [rotation_about_axis(model.hinge_axis, model.hinge_angle(float(x))) for x in np.ravel(a)],
        np.shape(a) + (3, 3),
    )
    return (model.part_moving.vertices - model.hinge_origin) @ np.swapaxes(Rh, -1, -2) + model.hinge_origin


def tight_bbox(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounds of the vertices as (min, max) corners.

    Raises:
        DegenerateMesh: any axis extent is below 1e-9 m.
    """
    return checked_bbox(mesh.vertices.min(axis=0), mesh.vertices.max(axis=0))


def checked_bbox(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box (lo, hi), unchanged once its every extent is checked.

    Raises:
        DegenerateMesh: any axis extent is below 1e-9 m.
    """
    if np.any(hi - lo < MIN_EXTENT):
        raise DegenerateMesh("bounding box extent vanishes along an axis")
    return lo, hi


def normalize_vertices(
    mesh: TriMesh, bbox: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Map vertices affinely into the unit cube spanned by ``bbox``.

    Raises:
        BBoxMismatch: a coordinate falls outside [-1e-9, 1 + 1e-9] after
            mapping, i.e. the box does not actually bound the mesh.
    """
    lo, hi = (np.asarray(b, dtype=float).reshape(3) for b in bbox)
    coords = (mesh.vertices - lo) / (hi - lo)
    if coords.min() < -1e-9 or coords.max() > 1.0 + 1e-9:
        raise BBoxMismatch("vertices escape the normalization box")
    return coords


def denormalize_coords(
    coords: np.ndarray, bbox: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Inverse of :func:`normalize_vertices` for arbitrary coordinate arrays."""
    lo, hi = (np.asarray(b, dtype=float).reshape(3) for b in bbox)
    return np.asarray(coords, dtype=float) * (hi - lo) + lo


def sample_surface_points(mesh: TriMesh, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` points uniformly by area from the mesh surface.

    Faces are chosen proportionally to their area, positions uniformly by
    barycentric mirroring.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    areas = mesh.face_areas()
    face_idx = rng.choice(mesh.n_faces, size=n, p=areas / areas.sum())
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    tri = mesh.vertices[mesh.faces[face_idx]]
    return (
        tri[:, 0]
        + u[:, None] * (tri[:, 1] - tri[:, 0])
        + v[:, None] * (tri[:, 2] - tri[:, 0])
    )


# ---------------------------------------------------------------------------
# file parsing


def load_mesh(path: str | Path) -> TriMesh:
    """Load a mesh from an ``.obj`` file.

    Raises:
        ParseError: another extension, malformed OBJ content or a
            degenerate mesh, naming the file.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix != ".obj":
        raise ParseError(f"{path}: unsupported mesh extension {suffix!r}")
    try:
        return _parse_obj(path.read_text())
    except (ParseError, DegenerateMesh) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_obj(text: str) -> TriMesh:
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                vertices.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex number") from exc
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: face needs 3 indices")
            try:
                idx = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise ParseError(
                    f"line {lineno}: face indices must be plain integers"
                ) from exc
            if min(idx) < 1:
                raise ParseError(f"line {lineno}: face indices are 1-based")
            faces.append([i - 1 for i in idx])
        else:
            raise ParseError(f"line {lineno}: unsupported element {parts[0]!r}")
    if not vertices or not faces:
        raise ParseError("mesh file declares no geometry")
    if max(max(f) for f in faces) >= len(vertices):
        raise ParseError("face references a missing vertex")
    return TriMesh(np.array(vertices, dtype=float), np.array(faces, dtype=np.int64))


def save_mesh_obj(mesh: TriMesh, path: str | Path) -> None:
    """Write the OBJ subset; float repr keeps the write deterministic."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for i, j, k in mesh.faces:
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# articulated model manifests


def load_model_manifest(path: str | Path) -> ArticulatedModel:
    """Read a two-part tool description from JSON.

    Mesh paths are resolved relative to the manifest location; missing
    angle limits fall back to the 0..0.6 rad default range.

    Raises:
        ParseError: a missing or malformed field or mesh file, naming the
            manifest.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    for key in ("fixed_mesh", "moving_mesh", "hinge_origin", "hinge_axis", "class_id"):
        if key not in doc:
            raise ParseError(f"{path}: manifest misses field {key!r}")
    class_id = doc["class_id"]
    if isinstance(class_id, bool) or not isinstance(class_id, int) or class_id < 0:
        raise ParseError(f"{path}: class_id must be a non-negative integer, got {class_id!r}")
    base = path.parent
    try:
        return ArticulatedModel(
            part_fixed=load_mesh(base / doc["fixed_mesh"]),
            part_moving=load_mesh(base / doc["moving_mesh"]),
            hinge_origin=np.asarray(doc["hinge_origin"], dtype=float),
            hinge_axis=np.asarray(doc["hinge_axis"], dtype=float),
            angle_min=float(doc.get("angle_min", DEFAULT_ANGLE_MIN)),
            angle_max=float(doc.get("angle_max", DEFAULT_ANGLE_MAX)),
            class_id=class_id,
        )
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad manifest: {exc}") from None


def save_model_manifest(model: ArticulatedModel, directory: str | Path, name: str) -> Path:
    """Write the model's meshes and manifest into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fixed_name = f"{name}_fixed.obj"
    moving_name = f"{name}_moving.obj"
    save_mesh_obj(model.part_fixed, directory / fixed_name)
    save_mesh_obj(model.part_moving, directory / moving_name)
    manifest = {
        "fixed_mesh": fixed_name,
        "moving_mesh": moving_name,
        "hinge_origin": [float(x) for x in model.hinge_origin],
        "hinge_axis": [float(x) for x in model.hinge_axis],
        "angle_min": float(model.angle_min),
        "angle_max": float(model.angle_max),
        "class_id": int(model.class_id),
    }
    out = directory / f"{name}.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# primitive constructors


def box_mesh(center, size) -> TriMesh:
    """Axis-aligned box with outward-facing triangles."""
    cx, cy, cz = (float(v) for v in center)
    hx, hy, hz = (0.5 * float(v) for v in size)
    corners = np.array(
        [
            [cx - hx, cy - hy, cz - hz],
            [cx + hx, cy - hy, cz - hz],
            [cx + hx, cy + hy, cz - hz],
            [cx - hx, cy + hy, cz - hz],
            [cx - hx, cy - hy, cz + hz],
            [cx + hx, cy - hy, cz + hz],
            [cx + hx, cy + hy, cz + hz],
            [cx - hx, cy + hy, cz + hz],
        ]
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # z-
            [4, 5, 6], [4, 6, 7],  # z+
            [0, 1, 5], [0, 5, 4],  # y-
            [3, 7, 6], [3, 6, 2],  # y+
            [0, 4, 7], [0, 7, 3],  # x-
            [1, 2, 6], [1, 6, 5],  # x+
        ],
        dtype=np.int64,
    )
    return TriMesh(corners, faces)


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def unit_sphere(subdivisions: int = 1) -> TriMesh:
    """Icosahedron subdivided ``subdivisions`` times onto the unit sphere."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES
    for _ in range(subdivisions):
        verts, faces = _subdivide_unit_sphere(verts, faces)
    return TriMesh(verts, faces)


def ellipsoid_mesh(center, radii, sphere: TriMesh) -> TriMesh:
    """Ellipsoid: ``sphere``, from :func:`unit_sphere`, scaled per axis by
    ``radii`` and moved to ``center``."""
    pts = sphere.vertices * np.asarray(radii, dtype=float) + np.asarray(center, dtype=float)
    return TriMesh(pts, sphere.faces)


def _subdivide_unit_sphere(
    verts: np.ndarray, faces: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    cache: dict[tuple[int, int], int] = {}
    out_verts = [v for v in verts]

    def midpoint(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        idx = cache.get(key)
        if idx is None:
            m = out_verts[i] + out_verts[j]
            m = m / np.linalg.norm(m)
            idx = len(out_verts)
            out_verts.append(m)
            cache[key] = idx
        return idx

    out_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(out_verts), np.array(out_faces, dtype=np.int64)
