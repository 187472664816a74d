"""Geometry primitives on Z^d: boxes, shells, spacing, parity.

A site is a tuple of ints.  A Region holds its sites as one read-only
(N, d) int64 array, coords, in lexicographic order, so that every
enumeration downstream is byte-reproducible.  Its neighbour table and
positions() look sites up by their mixed-radix keys in the bounding box,
so a region whose coordinates or box volume do not fit int64 is a
ValueError; a site not in the region has position -1.
"""

import functools
import itertools
import math

import numpy as np

MAX_DIM = 4


def check_dim(d):
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer, got %r" % (d,))
    if d > MAX_DIM:
        raise ValueError("dimension %d exceeds the supported cap %d" % (d, MAX_DIM))


def parity(site):
    """Parity of the coordinate sum, 0 or 1."""
    return sum(site) % 2


def add(i, j):
    return tuple(a + b for a, b in zip(i, j))


def sub(i, j):
    return tuple(a - b for a, b in zip(i, j))


def norm_inf(i):
    return max(abs(a) for a in i)


def norm_1(i):
    return sum(abs(a) for a in i)


def unit(t, d):
    """The t-th standard basis vector (1-based t) in dimension d."""
    return tuple(1 if s == t - 1 else 0 for s in range(d))


def neighbors(site):
    """The 2d lattice neighbors of a site."""
    d = len(site)
    out = []
    for t in range(d):
        for delta in (-1, 1):
            out.append(tuple(c + delta if s == t else c for s, c in enumerate(site)))
    return out


def _strides(lo, hi):
    """The strides of a site's key in the box lo..hi, the last axis
    fastest; ValueError unless the box's coordinates and volume fit int64."""
    spans = [b - a + 1 for a, b in zip(lo, hi)]
    if (min(lo) < -2 ** 63 or max(hi) >= 2 ** 63
            or math.prod(spans) >= 2 ** 63):
        raise ValueError("region box %r..%r does not fit int64"
                         % (list(lo), list(hi)))
    return np.cumprod([1] + spans[:0:-1])[::-1]


class Region:
    """A finite set of sites in fixed lexicographic order.

    sites is an iterable of int tuples of one length, or an (N, d) int
    array.  kind is a tag: ("F", n), ("B", n), ("rect", dims, offset) or
    ("general",).  Regions are immutable: the tables, the tuple of sites
    and the dict behind index() and `in` are built on first use and kept.
    Equality and hashing depend on the sites alone.
    """

    def __init__(self, sites, kind=("general",)):
        if not isinstance(sites, np.ndarray):
            sites = list(sites)
            if len({len(s) for s in sites}) > 1:
                raise ValueError("mixed dimensions in region")
        try:
            coords = np.array(sites, dtype=np.int64, order="C")
        except OverflowError:
            raise ValueError("region coordinates do not fit int64") from None
        self.kind, self.d, self._lo, self._hi = kind, None, None, None
        if not len(coords):
            coords = np.empty((0, 0), dtype=np.int64)
        else:
            self.d = coords.shape[1]
            check_dim(self.d)
            self._lo = tuple(coords.min(axis=0).tolist())
            self._hi = tuple(coords.max(axis=0).tolist())
            self._strides = _strides(self._lo, self._hi)
            self._keys = (coords - self._lo) @ self._strides
            if not (self._keys[1:] > self._keys[:-1]).all():
                self._keys, first = np.unique(self._keys, return_index=True)
                coords = coords[first]
        self.coords = coords
        coords.flags.writeable = False
        self._hash = hash((self.d, coords.tobytes()))

    @functools.cached_property
    def sites(self):
        return tuple(map(tuple, self.coords.tolist()))

    @functools.cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.sites)}

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site):
        return len(site) == self.d and site in self._index

    def __eq__(self, other):
        return (isinstance(other, Region) and self.d == other.d
                and np.array_equal(self.coords, other.coords))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Region, (self.coords, self.kind)

    def index(self, site):
        return self._index[site]

    def positions(self, coords):
        """The position of each site, a row of the (M, d) int array coords:
        -1 for a site outside the region."""
        coords = np.asarray(coords, dtype=np.int64)
        out = np.full(len(coords), -1, dtype=np.intp)
        if self.d is None or coords.shape[1:] != (self.d,):
            return out
        at = np.flatnonzero(((coords >= self._lo) & (coords <= self._hi))
                            .all(axis=1))
        keys = (coords[at] - self._lo) @ self._strides
        slot = np.minimum(self._keys.searchsorted(keys), len(self) - 1)
        out[at] = np.where(self._keys[slot] == keys, slot, -1)
        return out

    @functools.cached_property
    def _table(self):
        # a coordinate that wraps past int64 leaves the bounding box
        steps = np.kron(np.eye(self.d or 0, dtype=np.int64), [[-1], [1]])
        table = np.array([self.positions(self.coords + step) for step in steps],
                         dtype=np.int32).reshape(len(steps), len(self)).T
        table.flags.writeable = False
        return table

    def neighbor_table(self):
        """Each site's neighbours' positions, an N x 2d int32 array in the
        column order of neighbors(), -1 for one outside the region."""
        return self._table

    def earlier_neighbor_table(self):
        """The -e_t columns of neighbor_table(), the earlier neighbours."""
        return self._table[:, 0::2]

    def translate(self, offset):
        # in Python ints, which do not wrap as int64 would
        return Region([add(s, offset) for s in self.coords.tolist()])

    def is_box(self):
        """True when the region is exactly its bounding box."""
        return self.d is not None and len(self) == math.prod(
            b - a + 1 for a, b in zip(self._lo, self._hi))

    def bounds(self):
        return self._lo, self._hi

    def kind_descriptor(self):
        """JSON-friendly description of the region."""
        tag = self.kind[0]
        if tag == "F":
            return {"kind": "F", "n": self.kind[1], "d": self.d}
        if tag == "B":
            return {"kind": "B", "n": self.kind[1], "d": self.d}
        if tag == "rect":
            return {"kind": "rect", "dims": list(self.kind[1]),
                    "offset": list(self.kind[2]), "d": self.d}
        return {"kind": "general", "sites": self.coords.tolist(),
                "d": self.d}


def int_tuple(value, what, d=None):
    """A JSON list of ints (d of them, when d is given) as a tuple."""
    if (not isinstance(value, (list, tuple))
            or not all(isinstance(a, int) for a in value)
            or d is not None and len(value) != d):
        raise ValueError("%s must be a list of %sints, got %r"
                         % (what, "" if d is None else "%d " % d, value))
    return tuple(value)


def region_from_descriptor(desc):
    """The region that Region.kind_descriptor() describes."""
    kind = desc["kind"]
    if kind in ("F", "B"):
        return (box_F if kind == "F" else box_B)(desc["n"], desc["d"])
    if kind == "rect":
        dims = int_tuple(desc["dims"], "rect dims")
        return rectangle(dims, int_tuple(desc["offset"], "rect offset",
                                         len(dims)))
    if kind == "general":
        return Region([int_tuple(s, "site") for s in desc["sites"]])
    raise ValueError("unknown region kind %r" % (kind,))


def descriptor_size(desc):
    """The number of sites a box descriptor states, without building the
    box; None for a general region, whose file lists its sites."""
    kind = desc["kind"]
    if kind == "F":
        return (2 * _box_arg(desc["n"], desc["d"], 0, "box_F") + 1) ** desc["d"]
    if kind == "B":
        return _box_arg(desc["n"], desc["d"], 1, "box_B") ** desc["d"]
    if kind == "rect":
        return math.prod(int_tuple(desc["dims"], "rect dims"))
    return None


def _box_arg(n, d, least, what):
    """n, once n is checked to be an int >= least and d a dimension."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError("%s needs n >= %d, got %r" % (what, least, n))
    check_dim(d)
    return n


def box_F(n, d):
    """The centered box {-n..n}^d, built once per (n, d)."""
    _box_arg(n, d, 0, "box_F")
    return _box(n, d, "F")


def box_B(n, d):
    """The corner box {1..n}^d, built once per (n, d)."""
    _box_arg(n, d, 1, "box_B")
    return _box(n, d, "B")


def _grid(lo, dims):
    """The sites of the box lo + {0..dims[0]-1} x ..., as an (N, d) array
    in lexicographic order; ValueError unless the box fits int64."""
    _strides(lo, add(lo, [c - 1 for c in dims]))
    return np.indices(dims, dtype=np.int64).reshape(len(dims), -1).T + lo


@functools.lru_cache(maxsize=32)
def _box(n, d, kind):
    lo, side = (-n, 2 * n + 1) if kind == "F" else (1, n)
    return Region(_grid((lo,) * d, (side,) * d), kind=(kind, n))


def rectangle(dims, offset=None):
    """The box offset + {1..dims[0]} x ... x {1..dims[d-1]}."""
    d = len(dims)
    check_dim(d)
    if offset is None:
        offset = (0,) * d
    if any(not isinstance(a, int) or a < 1 for a in dims):
        raise ValueError("rectangle dims must be positive ints, got %r" % (dims,))
    return Region(_grid(tuple(o + 1 for o in offset), tuple(dims)),
                  kind=("rect", tuple(dims), tuple(offset)))


def shell_F(n, d):
    """The outer shell F_n \\ F_{n-1} (all of F_0 when n = 0), in site order."""
    coords = box_F(n, d).coords
    return list(map(tuple, coords[np.abs(coords).max(axis=1) == n].tolist()))


def is_K_spaced(points, K):
    """True iff the K-translates of the points are pairwise disjoint."""
    ksites = list(K)
    covered = [add(p, k) for p in points for k in ksites]
    return len(set(covered)) == len(covered)


def is_box_spaced(points, n):
    """is_K_spaced with K = F_n, via the pairwise sup-norm criterion."""
    return all(norm_inf(sub(a, b)) > 2 * n
               for a, b in itertools.combinations(points, 2))
