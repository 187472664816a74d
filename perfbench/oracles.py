"""Reference computations for the benchmark, written apart from latticelab.

Nothing here imports the package under test.  Every function is a plain,
separately derived route to a value the program also produces, so a
benchmark run can check each output instead of trusting it:

- row-transfer counts of proper q-colorings of grids (boxes with optional
  fixed cells, and tori), in Python ints;
- a cell-by-cell broken-profile domino DP (exact, numpy object ints);
- a height-map DP for tilings of a box by rectangular prototiles, and the
  bars235 recurrence a(L) = a(L-2) + a(L-3) + a(L-5);
- strip entropies from numpy.linalg.eigvalsh on the benchmark's own
  transfer matrix;
- checkers: packed pattern arrays (proper, strictly ordered, no
  duplicates), height fields of 3-colorings, and exact covers by tiles.
"""

import math

import numpy as np

SQUARE_ICE_ENTROPY = 1.5 * math.log(4.0 / 3.0)


# ---------------------------------------------------------------------------
# proper colorings by row transfer


def proper_rows(q, width, periodic=False):
    """All proper q-colorings of a path (or cycle) of `width` cells, lex order."""
    rows = [(c,) for c in range(q)]
    for _ in range(width - 1):
        rows = [r + (c,) for r in rows for c in range(q) if c != r[-1]]
    if periodic and width > 1:
        rows = [r for r in rows if r[-1] != r[0]]
    return rows


def row_successors(rows, q):
    """succ[i] = indices of the rows that may sit directly above rows[i]."""
    index = {r: i for i, r in enumerate(rows)}
    succ = []
    for a in rows:
        cands = [()]
        for x in a:
            cands = [b + (c,) for b in cands for c in range(q)
                     if c != x and (not b or c != b[-1])]
        succ.append([index[b] for b in cands if b in index])
    return succ


def count_grid_colorings(q, n_rows, n_cols, fixed=None):
    """Proper q-colorings of an n_rows x n_cols grid with some cells fixed.

    `fixed` maps (row, col) to a color.  Exact, in Python ints.
    """
    fixed = fixed or {}
    rows = proper_rows(q, n_cols)
    succ = row_successors(rows, q)

    def allowed(r):
        pins = [(c, v) for (rr, c), v in fixed.items() if rr == r]
        return [all(row[c] == v for c, v in pins) for row in rows]

    ok = allowed(0)
    vec = [1 if ok[i] else 0 for i in range(len(rows))]
    for r in range(1, n_rows):
        ok = allowed(r)
        nxt = [0] * len(rows)
        for i, ways in enumerate(vec):
            if ways:
                for j in succ[i]:
                    if ok[j]:
                        nxt[j] += ways
        vec = nxt
    return sum(vec)


def count_box_colorings(n, q=3):
    """|Hom(F_n, K_q)| for the (2n+1) x (2n+1) box."""
    side = 2 * n + 1
    return count_grid_colorings(q, side, side)


def count_torus_colorings(n, q=3):
    """|Hom(T_n, K_q)| for the 2n x 2n torus: trace(T^(2n)), T symmetric.

    trace(T^(2n)) = sum_ij (T^n)_ij^2.  T^n is formed in int64, which is
    exact because every entry of T^n is at most S^(n-1) for S states; the
    squares are summed in Python ints.
    """
    side = 2 * n
    rows = proper_rows(q, side, periodic=True)
    size = len(rows)
    if size ** max(n - 1, 1) >= 2 ** 62:
        raise OverflowError("torus oracle would overflow int64")
    T = np.zeros((size, size), dtype=np.int64)
    for i, js in enumerate(row_successors(rows, q)):
        T[i, js] = 1
    power = np.eye(size, dtype=np.int64)
    for _ in range(n):
        power = power @ T
    return sum(int(x) * int(x) for x in power.ravel().tolist())


def checkerboard_fixed(n, v0, v1, center):
    """Cells of the shell of F_n, in grid coordinates around `center`."""
    out = {}
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if max(abs(x), abs(y)) == n:
                out[(center + x, center + y)] = v0 if (x + y) % 2 == 0 else v1
    return out


def count_checker_colorings(n, v0=0, v1=1, q=3):
    """Colorings of F_n whose shell is the (v0, v1) checkerboard."""
    side = 2 * n + 1
    return count_grid_colorings(q, side, side, checkerboard_fixed(n, v0, v1, n))


def count_marker_colorings(n, v0=0, v1=1, v2=2, q=3):
    """Colorings of F_n: (v0, v1) checkerboard shell, (v0, v2) on F_(n-1)."""
    side = 2 * n + 1
    fixed = checkerboard_fixed(n, v0, v1, n)
    if n - 1 == 0:
        fixed[(n, n)] = v0
    else:
        fixed.update(checkerboard_fixed(n - 1, v0, v2, n))
    return count_grid_colorings(q, side, side, fixed)


def count_hat_colorings(n, q=3):
    """Colorings of F_n whose shell colors depend only on the site mod 2."""
    side = 2 * n + 1
    shell = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)
             if max(abs(x), abs(y)) == n]
    residues = sorted({(x % 2, y % 2) for x, y in shell})
    total = 0
    for k in range(q ** len(residues)):
        colors = {}
        for r in residues:
            colors[r] = k % q
            k //= q
        fixed = {(x + n, y + n): colors[(x % 2, y % 2)] for x, y in shell}
        total += count_grid_colorings(q, side, side, fixed)
    return total


# ---------------------------------------------------------------------------
# strip entropies


def strip_matrix(width, periodic, q=3):
    rows = np.array(proper_rows(q, width, periodic), dtype=np.int8)
    return np.all(rows[:, None, :] != rows[None, :, :], axis=2).astype(float)


def strip_entropy(width, periodic, q=3):
    """log(lambda_max) / width of the strip transfer matrix, via eigvalsh."""
    lam = float(np.linalg.eigvalsh(strip_matrix(width, periodic, q))[-1])
    return math.log(lam) / width


# ---------------------------------------------------------------------------
# tilings


def domino_counts(m, n_max):
    """[tilings of m x n by dominoes for n = 0..n_max], exact.

    Cell-by-cell broken profile: bit r of the state says cell r of the
    current column is already covered (before the cell is processed) or
    that cell r of the next column is (after).  Object arrays keep Python
    ints, so the counts never overflow.
    """
    size = 1 << m
    vec = np.zeros(size, dtype=object)
    vec[0] = 1
    out = [1]
    for _ in range(n_max):
        for r in range(m):
            bit = 1 << r
            v = vec.reshape(size >> (r + 1), 2, bit)
            new = np.empty_like(v)
            new[:, 0, :] = v[:, 1, :]   # covered already: nothing sticks out
            new[:, 1, :] = v[:, 0, :]   # free: horizontal domino sticks out
            if r + 1 < m:               # free pair: vertical domino
                v4 = vec.reshape(size >> (r + 2), 2, 2, bit)
                n4 = new.reshape(size >> (r + 2), 2, 2, bit)
                n4[:, 1, 0, :] += v4[:, 0, 0, :]
            vec = new.reshape(size)
        out.append(int(vec[0]))
    return out


def domino_table(side_max):
    """{(m, n): count} for 1 <= m <= n <= side_max."""
    table = {}
    for m in range(1, side_max + 1):
        counts = domino_counts(m, side_max)
        for n in range(m, side_max + 1):
            table[(m, n)] = counts[n]
    return table


def bars235_count(length):
    """Tilings of length x 1 by bars of length 2, 3 and 5."""
    a = [1] + [0] * length
    for L in range(1, length + 1):
        a[L] = sum(a[L - s] for s in (2, 3, 5) if L >= s)
    return a[length]


def count_box_tilings(protos, dims):
    """Tilings of the box dims by the rectangular prototiles, exact.

    Height-map DP: the filled part is always a height map over the other
    axes, and the tile covering the first empty cell (lowest height, then
    lex order of the base) has that cell as its least corner.
    """
    d = len(dims)
    up = max(range(d), key=lambda t: dims[t])
    base_axes = [t for t in range(d) if t != up]
    base_dims = [dims[t] for t in base_axes]
    top = dims[up]
    positions = [()]
    for extent in base_dims:
        positions = [p + (c,) for p in positions for c in range(extent)]
    index = {p: i for i, p in enumerate(positions)}
    shapes = []
    for proto in protos:
        foot = [()]
        for t in base_axes:
            foot = [f + (c,) for f in foot for c in range(proto[t])]
        shapes.append((proto[up], foot))
    memo = {}

    def rec(heights):
        low = min(heights)
        if low == top:
            return 1
        hit = memo.get(heights)
        if hit is not None:
            return hit
        first = heights.index(low)
        corner = positions[first]
        total = 0
        for rise, foot in shapes:
            if low + rise > top:
                continue
            cells = []
            for f in foot:
                p = tuple(a + b for a, b in zip(corner, f))
                i = index.get(p)
                if i is None or heights[i] != low:
                    break
                cells.append(i)
            else:
                nxt = list(heights)
                for i in cells:
                    nxt[i] = low + rise
                total += rec(tuple(nxt))
        memo[heights] = total
        return total

    return rec((0,) * len(positions))


def check_exact_cover(obj):
    """Raise ValueError unless the tiling JSON object covers its box exactly.

    Returns the number of tiles.  The region must be a box: kind "rect"
    (dims, offset) or "B" (n, d).
    """
    protos = [tuple(p) for p in obj["tileset"]]
    region = obj["region"]
    if region["kind"] == "rect":
        lo = [o + 1 for o in region["offset"]]
        hi = [o + c for o, c in zip(region["offset"], region["dims"])]
    elif region["kind"] == "B":
        lo = [1] * region["d"]
        hi = [region["n"]] * region["d"]
    else:
        raise ValueError("tiling region is not a box: %r" % (region["kind"],))
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    covered = set()
    for p, offset in obj["placements"]:
        cells = [()]
        for t, side in enumerate(protos[p]):
            cells = [c + (offset[t] + x,) for c in cells
                     for x in range(1, side + 1)]
        for c in cells:
            if not all(a <= x <= b for x, a, b in zip(c, lo, hi)):
                raise ValueError("tile %r leaves the box at %r" % (offset, c))
            if c in covered:
                raise ValueError("tiles overlap at %r" % (c,))
            covered.add(c)
    if len(covered) != volume:
        raise ValueError("%d of %d cells covered" % (len(covered), volume))
    return len(obj["placements"])


# ---------------------------------------------------------------------------
# pattern and height-field checkers


CHECK_ROWS = 1 << 14


def check_packed_patterns(arr, shape, q=3):
    """Raise ValueError unless the rows of arr are proper q-colorings of the
    box `shape`, in strictly increasing lexicographic order (so distinct).

    Works through CHECK_ROWS rows at a time (each block overlapping the
    last row of the one before), so the check's own arrays stay small
    next to the program's."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[1] != int(np.prod(shape)):
        raise ValueError("packed array has shape %r" % (arr.shape,))
    for start in range(0, max(len(arr) - 1, 1), CHECK_ROWS):
        _check_block(arr[start:start + CHECK_ROWS + 1], shape, q)


def _check_block(arr, shape, q):
    if arr.size and int(arr.max()) >= q:
        raise ValueError("value outside the alphabet")
    grid = arr.reshape((arr.shape[0],) + tuple(shape))
    for axis in range(1, grid.ndim):
        head = np.take(grid, range(grid.shape[axis] - 1), axis=axis)
        tail = np.take(grid, range(1, grid.shape[axis]), axis=axis)
        if np.any(head == tail):
            raise ValueError("improper coloring along axis %d" % axis)
    if len(arr) > 1:
        a, b = arr[:-1], arr[1:]
        differ = a != b
        if not differ.any(axis=1).all():
            raise ValueError("duplicate patterns")
        first = differ.argmax(axis=1)
        rows = np.arange(len(a))
        if not np.all(a[rows, first] < b[rows, first]):
            raise ValueError("patterns out of lexicographic order")


def check_height_field(colors, heights, side, base):
    """Raise ValueError unless heights lift the 3-coloring of a side x side box.

    colors and heights are in row-major site order; base is a (row, col)
    grid position.  Checks: zero at the base, a unit step across every
    edge, heights congruent to color - color(base) mod 3, and the L1
    Lipschitz bound |h(i)| <= |i - base|_1.
    """
    c = np.asarray(colors, dtype=np.int64).reshape(side, side)
    h = np.asarray(heights, dtype=np.int64).reshape(side, side)
    if h[base] != 0:
        raise ValueError("height at the base is %d" % h[base])
    if np.any(np.abs(np.diff(h, axis=0)) != 1) or \
            np.any(np.abs(np.diff(h, axis=1)) != 1):
        raise ValueError("non-unit height step")
    if np.any((h - c + c[base]) % 3):
        raise ValueError("heights do not match the coloring mod 3")
    r, s = np.indices((side, side))
    if np.any(np.abs(h) > np.abs(r - base[0]) + np.abs(s - base[1])):
        raise ValueError("Lipschitz bound violated")
