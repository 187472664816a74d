"""Integer height lifts of proper 3-colorings and window gluing checks.

A proper 3-coloring of a connected region lifts to a height function:
one integer per site, zero at a chosen base, stepping by exactly one
across every lattice edge, and congruent to the coloring mod 3.  The
lift is path-independent because the signed steps around any unit
square cancel, so a breadth-first sweep computes it.  Heights turn
gluing questions about colorings into integer Lipschitz-extension
questions, which is what the window check below exploits: a steep
(striped) center pattern cannot meet a flat (checkerboard) surround
across a thin annulus.
"""

from collections import deque

from . import lattice
from .homshift import Pattern, is_hom, enumerate_hom, first_hom
from .util import BudgetCounter


# signed height step across an edge, indexed by the color change mod 3
_STEP = (0, 1, -1)


class HeightField:
    """Heights over a connected region, zero at the base site.

    Instances built by hand may violate the step rule; validate()
    checks it, and height_cocycle only ever returns valid fields.
    """

    def __init__(self, region, base, heights, coloring=None):
        if base not in region:
            raise ValueError("base %r outside the region" % (base,))
        self.region = region
        self.base = base
        self.heights = dict(heights)
        self.coloring = coloring

    def validate(self):
        """Raise unless base height is zero, steps are unit, mod 3 holds."""
        if self.heights.get(self.base) != 0:
            raise ValueError("height at base %r is not zero" % (self.base,))
        sites = self.region.sites
        for site, nbrs in zip(sites, self.region.neighbor_table()):
            if site not in self.heights:
                raise ValueError("no height at %r" % (site,))
            h = self.heights[site]
            for j in nbrs:
                if abs(h - self.heights[sites[j]]) != 1:
                    raise ValueError("non-unit height step %r -> %r"
                                     % (site, sites[j]))
        if self.coloring is not None:
            c0 = self.coloring.value(self.base)
            for site in self.region:
                if (self.heights[site] - self.coloring.value(site) + c0) % 3:
                    raise ValueError("height at %r does not match the "
                                     "coloring mod 3" % (site,))

    def __repr__(self):
        return "HeightField(%s, base=%s)" % (self.region.kind, self.base)


def height_cocycle(x, base):
    """Lift the proper 3-coloring x to its height field, zero at base.

    Breadth-first from the base: the step across an edge is +1 when the
    color increases by 1 mod 3 and -1 when it increases by 2 mod 3.
    Raises for improper colorings, a disconnected region, a base outside
    the region, or (impossible for proper colorings) a sweep conflict.
    """
    region = x.region
    if region.d is None:
        raise ValueError("empty region has no heights")
    if base not in region:
        raise ValueError("base %r outside the region" % (base,))
    if max(x.values) > 2:
        raise ValueError("colors must lie in {0, 1, 2}")
    sites = region.sites
    vals = x.values
    heights = [None] * len(sites)
    start = region.index(base)
    heights[start] = 0
    queue = deque([start])
    table = region.neighbor_table()
    while queue:
        i = queue.popleft()
        hi = heights[i]
        ci = vals[i]
        for j in table[i]:
            step = _STEP[(vals[j] - ci) % 3]
            if not step:
                raise ValueError("equal colors %d across an edge: improper "
                                 "coloring" % ci)
            hj = hi + step
            if heights[j] is None:
                heights[j] = hj
                queue.append(j)
            elif heights[j] != hj:
                raise ValueError("not a valid 3-coloring height at %r"
                                 % (sites[j],))
    missing = sum(1 for h in heights if h is None)
    if missing:
        raise ValueError("region is disconnected: %d of %d sites "
                         "unreachable from %r" % (missing, len(sites), base))
    return HeightField(region, base, dict(zip(sites, heights)), coloring=x)


def lipschitz_check(field):
    """First site whose height exceeds its path distance from the base.

    Returns None when |heights[i]| <= ||i - base||_1 everywhere, else
    the first offending (site, height, bound) in canonical site order.
    Every field produced by height_cocycle on a box passes.
    """
    base = field.base
    heights = field.heights
    h0 = heights[base]
    for site in field.region:
        h = heights[site] - h0
        bound = sum(abs(a - b) for a, b in zip(site, base))
        if abs(h) > bound:
            return (site, h, bound)
    return None


def slope_estimate(field, site):
    """Height gained per unit of path distance from the base.

    A descriptive statistic only: it quantifies how steep the field is
    toward one site and carries no claim beyond that.
    """
    dist = lattice.norm_1(lattice.sub(site, field.base))
    if dist == 0:
        return 0.0
    return (field.heights[site] - field.heights[field.base]) / dist


def sample_coloring(region, seed):
    """A random proper 3-coloring, filled in raster order.

    Each site takes a seeded uniform choice among the colors its
    already-assigned neighbors leave free; on a box in one or two
    dimensions at most two neighbors are assigned, so a free color
    always exists.  Reproducible for a fixed seed, not uniform over
    all colorings.
    """
    from .util import rng_choice

    values = bytearray(len(region))
    for pos, earlier in enumerate(region.earlier_neighbor_table()):
        used = {values[j] for j in earlier}
        free = [c for c in range(3) if c not in used]
        if not free:
            raise RuntimeError("sampler blocked at %r: all colors used by "
                               "neighbors" % (region.sites[pos],))
        values[pos] = free[rng_choice(seed, pos, len(free))]
    return Pattern(region, bytes(values))


def striped_coloring(region):
    """The maximal-slope coloring: coordinate sum mod 3."""
    return Pattern(region, bytes(sum(s) % 3 for s in region.sites))


def checker_coloring(region):
    """The flat coloring: site parity, colors 0 and 1 only."""
    return Pattern(region, bytes(lattice.parity(s) for s in region.sites))


def quasiflat_gap(samples, displacements):
    """Largest height difference between two samples at one displacement.

    All samples must be proper colorings of one region containing the
    origin; heights are taken with base at the origin.  The result is
    max over ordered sample pairs (y, y') and displacements i of
    height_{y'}(i) - height_y(i) - a lower bound for the corresponding
    supremum of any coloring family containing the samples.
    """
    samples = list(samples)
    if not samples:
        return 0
    region = samples[0].region
    base = (0,) * region.d
    if base not in region:
        raise ValueError("region must contain the origin")
    for p in samples:
        if p.region != region:
            raise ValueError("samples live on different regions")
    for i in displacements:
        if i not in region:
            raise ValueError("displacement %r outside the region" % (i,))
    fields = [height_cocycle(p, base) for p in samples]
    gap = 0
    for low in fields:
        for high in fields:
            for i in displacements:
                gap = max(gap, high.heights[i] - low.heights[i])
    return gap


def _first_hom(H, region, fixed, counter):
    """First completion of the fixed sites to a hom on region, or None."""
    values = first_hom(H, region, fixed, counter)
    return None if values is None else Pattern(region, values)


def _is_k3(H):
    return (H.n == 3 and all(H.has_edge(u, v)
                             for u in range(3) for v in range(3) if u != v))


def _window_regions(M, n, buffer, d):
    box = lattice.box_F(n + M + buffer, d)
    inner = lattice.box_F(n, d)
    ring = lattice.Region(
        [s for s in box if lattice.norm_inf(s) > n + M])
    return box, inner, ring


def _lipschitz_glue(H, box, x, y):
    """Direct gluing attempt for the striped-center / checker-ring pair.

    Any gluing is a height function agreeing with the forced heights on
    both fixed parts (the ring's plateau may sit at any offset in 6Z:
    multiples of 3 keep the colors, even multiples keep the step
    parity).  A compatible offset exists exactly when every center/ring
    site pair satisfies the Lipschitz inequality; the pointwise-minimal
    extension then yields a candidate coloring, which is validated
    before being trusted.  Returns the glued pattern or None.
    """
    anchors = {s: sum(s) for s in x.region}
    ring_parity = {s: lattice.parity(s) for s in y.region}
    lo = None
    hi = None
    for u, hu in anchors.items():
        for v, pv in ring_parity.items():
            dist = lattice.norm_1(lattice.sub(u, v))
            lo = hu - pv - dist if lo is None else max(lo, hu - pv - dist)
            hi = hu - pv + dist if hi is None else min(hi, hu - pv + dist)
    shift = 6 * (-((-lo) // 6))
    if shift > hi:
        return None
    for v, pv in ring_parity.items():
        anchors[v] = pv + shift
    items = list(anchors.items())
    values = bytearray(len(box))
    for pos, w in enumerate(box.sites):
        h = max(ha - lattice.norm_1(lattice.sub(w, a)) for a, ha in items)
        values[pos] = h % 3
    glued = Pattern(box, bytes(values))
    if not is_hom(H, glued):
        return None
    if glued.restrict(x.region).values != x.values:
        return None
    if glued.restrict(y.region).values != y.values:
        return None
    return glued


def ufp_window_check(H, M, n, buffer=1, mode="targeted", d=2, budget=None):
    """Can every center pattern meet every surround across a margin M?

    Window version of the uniform filling property on the box
    F_{n+M+buffer}: the center F_n and the outer ring (sup-norm above
    n+M) are fixed, and a gluing is a hom on the whole box extending
    both.  Returns None when every tested pair glues, else the first
    failing (center_pattern, ring_pattern).

    mode "targeted" (K3 only, d=2) tests the single extreme pair -
    striped center against checkerboard ring - first by direct height
    interpolation and, failing that, by exhaustive search over the free
    annulus.  mode "exhaustive" tests every pair of restrictions of
    full-box homs; sizes beyond a few sites explode, and the budget
    guard raises rather than run forever.
    """
    if M < 0:
        raise ValueError("margin M must be >= 0, got %r" % (M,))
    if n < 1:
        raise ValueError("center radius n must be >= 1, got %r" % (n,))
    if buffer < 1:
        raise ValueError("buffer must be >= 1, got %r" % (buffer,))
    if mode == "targeted":
        if not _is_k3(H):
            raise ValueError("targeted mode needs the complete graph on "
                             "three vertices")
        if d != 2:
            raise ValueError("targeted mode is two-dimensional")
        box, inner, ring = _window_regions(M, n, buffer, d)
        x = striped_coloring(inner)
        y = checker_coloring(ring)
        if _lipschitz_glue(H, box, x, y) is not None:
            return None
        counter = BudgetCounter(budget)
        fixed = x.mapping()
        fixed.update(y.mapping())
        if _first_hom(H, box, fixed, counter) is not None:
            return None
        return (x, y)
    if mode == "exhaustive":
        box, inner, ring = _window_regions(M, n, buffer, d)
        everything = enumerate_hom(H, box, budget=budget)
        inner_vals = sorted(set(p.restrict(inner).values for p in everything))
        ring_vals = sorted(set(p.restrict(ring).values for p in everything))
        counter = BudgetCounter(budget)
        for xv in inner_vals:
            fixed = dict(zip(inner.sites, xv))
            for yv in ring_vals:
                fixed.update(zip(ring.sites, yv))
                if _first_hom(H, box, fixed, counter) is None:
                    return (Pattern(inner, xv), Pattern(ring, yv))
        return None
    raise ValueError("mode must be 'targeted' or 'exhaustive', got %r"
                     % (mode,))
