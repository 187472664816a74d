"""Geometry primitives on Z^d: boxes, shells, spacing, parity.

Sites are plain tuples of ints.  Regions keep their sites in lexicographic
order so that every enumeration downstream is byte-reproducible.  A region
is never changed after it is built, so it caches position tables for its
inner loops: Region.neighbor_table() and Region.earlier_neighbor_table()
map each site position to the positions of its in-region neighbors, and
are built on first use.
"""

import functools
import itertools
import math

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


class Region:
    """A finite set of sites in fixed lexicographic order.

    kind is a tag: ("F", n), ("B", n), ("rect", dims, offset) or ("general",).
    Its bounding box is kept for bounds() and is_box().

    Regions are immutable.  That makes it safe to cache two position
    tables, each built on first use: neighbor_table() and
    earlier_neighbor_table(), and the hash, which the caches keyed by
    region read on every call.  Equality and hashing depend on sites
    alone, so a region with filled caches equals, and hashes like, a
    fresh one.
    """

    def __init__(self, sites, kind=("general",)):
        sites = sorted(set(sites))
        if not sites:
            self.d = None
            self.sites = ()
            self.kind = kind
            self._index = {}
            self._lo = self._hi = None
            self._neighbor_table = self._earlier_table = None
            self._hash = hash(self.sites)
            return
        d = len(sites[0])
        check_dim(d)
        for s in sites:
            if len(s) != d:
                raise ValueError("mixed dimensions in region")
        self.d = d
        self.sites = tuple(sites)
        self.kind = kind
        self._index = {s: i for i, s in enumerate(self.sites)}
        self._lo = tuple(min(s[t] for s in sites) for t in range(d))
        self._hi = tuple(max(s[t] for s in sites) for t in range(d))
        self._neighbor_table = self._earlier_table = None
        self._hash = hash(self.sites)

    def __len__(self):
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site):
        return len(site) == self.d and site in self._index

    def __eq__(self, other):
        return isinstance(other, Region) and self.sites == other.sites

    def __hash__(self):
        return self._hash

    def index(self, site):
        return self._index[site]

    def neighbor_table(self):
        """For each position, the positions of its in-region neighbors.

        Neighbors are listed in the order neighbors() gives them.
        """
        if self._neighbor_table is None:
            index = self._index
            self._neighbor_table = tuple(
                tuple(index[nb] for nb in neighbors(site) if nb in index)
                for site in self.sites)
        return self._neighbor_table

    def earlier_neighbor_table(self):
        """neighbor_table() restricted to positions earlier in site order."""
        if self._earlier_table is None:
            self._earlier_table = tuple(
                tuple(j for j in nbrs if j < pos)
                for pos, nbrs in enumerate(self.neighbor_table()))
        return self._earlier_table

    def translate(self, offset):
        return Region([add(s, offset) for s in self.sites], kind=("general",))

    def is_box(self):
        """True when the region is exactly its bounding box."""
        if self._lo is None:
            return False
        vol = 1
        for t in range(self.d):
            vol *= self._hi[t] - self._lo[t] + 1
        return vol == len(self.sites)

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
        return {"kind": "general", "sites": [list(s) for s in self.sites],
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


def _centered_sites(n, d):
    """The sites of {-n..n}^d, in lexicographic order."""
    _box_arg(n, d, 0, "box_F")
    return itertools.product(range(-n, n + 1), repeat=d)


def box_F(n, d):
    """The centered box {-n..n}^d, built once per (n, d)."""
    _box_arg(n, d, 0, "box_F")
    return _box(n, d, "F")


def box_B(n, d):
    """The corner box {1..n}^d, built once per (n, d)."""
    _box_arg(n, d, 1, "box_B")
    return _box(n, d, "B")


@functools.lru_cache(maxsize=32)
def _box(n, d, kind):
    if kind == "F":
        return Region(_centered_sites(n, d), kind=("F", n))
    return Region(itertools.product(range(1, n + 1), repeat=d), kind=("B", n))


def rectangle(dims, offset=None):
    """The box offset + {1..dims[0]} x ... x {1..dims[d-1]}."""
    d = len(dims)
    check_dim(d)
    if offset is None:
        offset = (0,) * d
    if any(not isinstance(a, int) or a < 1 for a in dims):
        raise ValueError("rectangle dims must be positive ints, got %r" % (dims,))
    sites = itertools.product(*[range(offset[t] + 1, offset[t] + dims[t] + 1)
                                for t in range(d)])
    return Region(sites, kind=("rect", tuple(dims), tuple(offset)))


def shell_F(n, d):
    """The outer shell F_n \\ F_{n-1} (all of F_0 when n = 0), in site order."""
    return [s for s in _centered_sites(n, d) if norm_inf(s) == n]


def is_K_spaced(points, K):
    """True iff the K-translates of the points are pairwise disjoint."""
    points = list(points)
    ksites = list(K)
    occupied = set()
    for p in points:
        for k in ksites:
            site = add(p, k)
            if site in occupied:
                return False
            occupied.add(site)
    return True


def is_box_spaced(points, n):
    """is_K_spaced with K = F_n, via the pairwise sup-norm criterion."""
    points = list(points)
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if norm_inf(sub(points[a], points[b])) <= 2 * n:
                return False
    return True
