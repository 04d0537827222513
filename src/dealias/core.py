"""Shared primitives: deterministic randomness, phantom images, binary file I/O.

All arithmetic in this package is double precision, except the anchored l1
fit (``autoencoder.fit_l1_decoder``), whose features F, copy of the targets,
sparse residual P, relaxation variable B1 and work array are float32.
Persisted tensors are stored as float32.  Images are plain 2-d ``numpy``
arrays (row-major, finite values), complex k-space grids are complex128
arrays.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class FormatError(Exception):
    """A persisted artifact does not conform to its binary format."""


class NumericFailure(RuntimeError):
    """An iterative solver produced a non-finite intermediate."""


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------


class SeededRng:
    """Deterministic 64-bit generator (splitmix64).

    The algorithm is frozen: equal seeds give bit-equal streams on every
    platform, and persisted test vectors depend on the exact sequence.
    Changing the mixer is a breaking change.

    A generator is single-owner.  Parallel consumers must derive children
    deterministically via :meth:`split` (seed + worker index) instead of
    sharing one stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def split(self, index: int) -> "SeededRng":
        return SeededRng((self.seed + index) & _MASK64)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 draws.

        splitmix64 state is an additive counter, so a batch of draws is
        computed in one vectorized pass; batched and one-at-a-time draws
        produce the same stream.
        """
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 53-bit resolution."""
        return (self.raw(n) >> np.uint64(11)) * 2.0 ** -53

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller (two raws per sample)."""
        n = int(np.prod(shape))
        r = self.raw(2 * n)
        u1 = ((r[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53  # (0, 1]
        u2 = (r[1::2] >> np.uint64(11)) * 2.0 ** -53
        out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return out.reshape(shape)

    def integer(self, upper: int) -> int:
        """Unbiased draw from {0, ..., upper-1} (rejection sampling)."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        span = _MASK64 + 1
        limit = span - span % upper
        while True:
            v = int(self.raw(1)[0])
            if v < limit:
                return v % upper

    def choice(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices from {0, ..., n-1} (partial Fisher-Yates),
        step i swapping in ``i + self.integer(n - i)``.  The raws are drawn
        in one batch; from the first that :meth:`integer` rejects, the
        steps draw one at a time, so the stream is the sequential one."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        start = self._count
        draws = self.raw(k)
        uppers = np.uint64(n) - np.arange(k, dtype=np.uint64)
        # integer() rejects v >= 2**64 - 2**64 % upper
        excess = (np.uint64(_MASK64) % uppers + np.uint64(1)) % uppers
        rejected = np.flatnonzero(draws > np.uint64(_MASK64) - excess)
        accepted = int(rejected[0]) if rejected.size else k
        offsets = (draws[:accepted] % uppers[:accepted]).tolist()
        if accepted < k:
            self._count = start + accepted + 1
            offsets += [self.integer(n - i) for i in range(accepted, k)]
        pool = np.arange(n)
        for i, offset in enumerate(offsets):
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k].copy()


# ---------------------------------------------------------------------------
# phantoms
# ---------------------------------------------------------------------------

# Standard (non-modified) Shepp-Logan head phantom on the [-1, 1]^2 square:
# (intensity, semi-axis a, semi-axis b, center x0, center y0, tilt degrees).
# Pixel values are the sum of intensities of all covering ellipses.
SHEPP_LOGAN_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)

# Fixed disk layout for the "disks" phantom: (center x, center y, radius,
# value), painted in order (later disks overwrite earlier ones).
DISK_TABLE = (
    (-0.35, -0.30, 0.38, 0.85),
    (0.40, 0.25, 0.27, 0.55),
    (0.05, 0.45, 0.16, 1.00),
    (-0.15, 0.28, 0.11, 0.35),
    (0.33, -0.42, 0.14, 0.70),
)


def _pixel_grid(size: int):
    """Pixel-center coordinates on [-1, 1]^2, y pointing up."""
    half = (size - 1) / 2.0
    xs = (np.arange(size) - half) / half
    ys = (half - np.arange(size)) / half
    return np.meshgrid(xs, ys)


def ellipse_mask(x, y, a, b, x0, y0, tilt_deg):
    """Boolean membership of points (x, y) in a tilted ellipse."""
    t = math.radians(tilt_deg)
    ct, st = math.cos(t), math.sin(t)
    dx, dy = x - x0, y - y0
    u = (dx * ct + dy * st) / a
    v = (-dx * st + dy * ct) / b
    return u * u + v * v <= 1.0


def check_phantom_size(size: int) -> None:
    if size < 16:
        raise ValueError("phantom size must be at least 16")


def generate_phantom(kind: str, size: int) -> np.ndarray:
    """Deterministic test image of shape (size, size) with values in [0, 1].

    ``kind`` is "shepp-logan" (the standard 10-ellipse head phantom) or
    "disks" (a fixed layout of painted disks).
    """
    check_phantom_size(size)
    x, y = _pixel_grid(size)
    img = np.zeros((size, size))
    if kind == "shepp-logan":
        for val, a, b, x0, y0, tilt in SHEPP_LOGAN_ELLIPSES:
            img[ellipse_mask(x, y, a, b, x0, y0, tilt)] += val
    elif kind == "disks":
        for x0, y0, r, val in DISK_TABLE:
            img[(x - x0) ** 2 + (y - y0) ** 2 <= r * r] = val
    else:
        raise ValueError(f"unknown phantom kind: {kind!r}")
    return img


def _ellipse_box(size, a, b, x0, y0, tilt_deg):
    """Row and column slices holding every pixel of a tilted ellipse: its
    exact extent on the grid of :func:`_pixel_grid`, widened by one pixel
    on each side so that rounding drops no boundary pixel."""
    t = math.radians(tilt_deg)
    ex = math.hypot(a * math.cos(t), b * math.sin(t))
    ey = math.hypot(a * math.sin(t), b * math.cos(t))
    half = (size - 1) / 2.0
    # pixel (i, j) sits at x = (j - half) / half, y = (half - i) / half
    spans = ((half - (y0 + ey) * half, half - (y0 - ey) * half),
             (half + (x0 - ex) * half, half + (x0 + ex) * half))
    return tuple(slice(max(math.floor(lo) - 1, 0), max(math.ceil(hi) + 2, 0)) for lo, hi in spans)


def random_phantom(size: int, rng: SeededRng) -> np.ndarray:
    """Procedural head-style phantom: an enclosing outline ellipse painted
    at low intensity plus 2-6 interior structures painted over it, each
    evaluated only on its bounding box."""
    check_phantom_size(size)
    x, y = _pixel_grid(size)
    img = np.zeros((size, size))
    p = rng.uniform(6)
    a0, b0 = 0.55 + 0.3 * p[0], 0.55 + 0.3 * p[1]
    x0, y0 = -0.1 + 0.2 * p[2], -0.1 + 0.2 * p[3]
    outline = ellipse_mask(x, y, a0, b0, x0, y0, 180.0 * p[4])
    img[outline] = 0.15 + 0.25 * p[5]
    count = 2 + rng.integer(5)
    for _ in range(count):
        q = rng.uniform(6)
        a, b = 0.08 + 0.30 * q[2], 0.08 + 0.30 * q[3]
        xc, yc, tilt = x0 - 0.35 + 0.7 * q[0], y0 - 0.35 + 0.7 * q[1], 180.0 * q[4]
        box = _ellipse_box(size, a, b, xc, yc, tilt)
        inner = ellipse_mask(x[box], y[box], a, b, xc, yc, tilt)
        img[box][inner & outline[box]] = 0.15 + 0.85 * q[5]
    return img


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

RDT_MAGIC = b"RDT1"


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (temp file + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, tensor) -> None:
    """Persist an array in the RDT1 container (see :func:`encode_tensor`)."""
    atomic_write_bytes(path, encode_tensor(tensor))


def encode_tensor(tensor) -> bytes:
    """An array as the bytes of an RDT1 container, checked before any file
    is touched.

    Layout: 4-byte magic "RDT1", uint8 rank, one little-endian uint32 per
    axis, then the float32 little-endian row-major payload.
    """
    arr = np.ascontiguousarray(np.asarray(tensor, dtype=np.float64))
    with np.errstate(over="ignore"):
        stored = arr.astype("<f4")
    if not np.all(np.isfinite(stored)):  # also what float32 cannot hold
        raise ValueError("tensor values must be finite in float32")
    if arr.ndim > 255:
        raise FormatError("rank exceeds uint8")
    if any(d >= 2 ** 32 for d in arr.shape):
        raise FormatError("dimension exceeds uint32")
    header = RDT_MAGIC + bytes([arr.ndim])
    header += b"".join(int(d).to_bytes(4, "little") for d in arr.shape)
    return header + stored.tobytes(order="C")


def read_tensor(path) -> np.ndarray:
    """Read an RDT1 container back as a float64 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 5 or blob[:4] != RDT_MAGIC:
        raise FormatError(f"bad magic in {path}")
    rank = blob[4]
    offset = 5 + 4 * rank
    if len(blob) < offset:
        raise FormatError(f"truncated dimension table in {path}")
    dims = tuple(
        int.from_bytes(blob[5 + 4 * i : 9 + 4 * i], "little") for i in range(rank)
    )
    count = 1
    for d in dims:
        count *= d
    if len(blob) != offset + 4 * count:
        raise FormatError(f"payload length mismatch in {path}")
    flat = np.frombuffer(blob, dtype="<f4", offset=offset, count=count)
    return flat.astype(np.float64).reshape(dims)


def write_pgm(path, image) -> None:
    """Export an image as 8-bit binary PGM (P5), linearly mapped to full range.

    The image minimum maps to 0 and the maximum to 255; a constant image
    maps to all zeros (the degenerate range is defined to collapse to black
    rather than divide by zero).
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a nonempty 2-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image values must be finite")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = np.rint((arr - lo) / (hi - lo) * 255)
    else:
        scaled = np.zeros_like(arr)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + scaled.astype(np.uint8).tobytes(order="C"))


def ensure_image(arr) -> np.ndarray:
    """Validate and return a finite 2-d float64 image."""
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.size == 0:
        raise ValueError("expected a nonempty 2-d image")
    if not np.all(np.isfinite(out)):
        raise ValueError("image contains non-finite values")
    return out


def require_integer(name: str, value) -> None:
    """ValueError unless ``value`` is an integer: operator.index refuses 2.5,
    which int() would truncate, and bools, which it takes, are refused here."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")
