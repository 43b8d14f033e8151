"""Checks of the program's outputs made apart from the program.

Nothing here imports coloredsym.  Each ``check_*`` function takes the parsed
JSON a CLI call printed, plus the inputs the benchmark sent, and returns
``None`` when the output holds or a one-line reason when it does not.  The
expected values are recomputed from definitions: class sizes from the rainbow
blocks and brute-force descent counts, dimensions from hook lengths and
multinomials, case counts from closed forms and a brute-force count of skew
shapes.  Ribbon expansions are recomputed in full: a colored ribbon is the
product over colors j of the skew Schur function of the color-j ribbons in
alphabet j, so its Schur coefficients are products of Littlewood-Richardson
counts, its h coefficients come from the skew Jacobi-Trudi determinant, and
its f coefficients from the descent class, generated directly.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial, prod


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """``"2^0,3^1,1"`` -> ``[(2, 0), (3, 1), (1, 0)]``."""
    out = []
    for token in text.split(","):
        value, _, color = token.partition("^")
        out.append((int(value), int(color or 0)))
    return out


def caret(values, colors) -> str:
    return ",".join(f"{v}^{c}" for v, c in zip(values, colors))


def _runs(word, colors):
    """Maximal increasing constant-color runs as (length, color) pairs."""
    runs = []
    for i, (v, c) in enumerate(zip(word, colors)):
        if i and c == colors[i - 1] and word[i - 1] < v:
            runs[-1][0] += 1
        else:
            runs.append([1, c])
    return [tuple(run) for run in runs]


def colored_descent_composition(word, colors):
    """(parts, colors) of the maximal increasing constant-color runs."""
    runs = _runs(word, colors)
    return tuple(p for p, _ in runs), tuple(c for _, c in runs)


def colored_descent_set(word, colors):
    """Run ends with their colors, n always included."""
    out, end = [], 0
    for length, color in _runs(word, colors):
        end += length
        out.append([end, color])
    return out


def conj_inverse(word, colors):
    """``(pi^-1, pi^-1(z))``: position i gets the color z at pi^-1(i)."""
    inv = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inv[v - 1] = i
    return inv, [colors[j - 1] for j in inv]


@lru_cache(maxsize=None)
def _descent_counts(m: int) -> dict:
    """Descent composition -> number of permutations of [m], by brute force."""
    counts: dict = {}
    for word in permutations(range(1, m + 1)):
        key = colored_descent_composition(word, (0,) * m)[0]
        counts[key] = counts.get(key, 0) + 1
    return counts


def beta(parts) -> int:
    """Number of permutations whose descent composition is ``parts``."""
    return _descent_counts(sum(parts)).get(tuple(parts), 0)


def rainbow_blocks(parts, colors):
    """Maximal runs of equal-colored parts as (block parts, color)."""
    blocks = []
    for p, c in zip(parts, colors):
        if blocks and blocks[-1][1] == c:
            blocks[-1][0].append(p)
        else:
            blocks.append([[p], c])
    return [(tuple(b), c) for b, c in blocks]


def class_size(parts, colors) -> int:
    """Size of the colored descent class: n!/prod m_b! * prod beta(alpha_b)
    over the rainbow blocks alpha_b of sizes m_b."""
    blocks = rainbow_blocks(parts, colors)
    out = factorial(sum(parts))
    for block, _ in blocks:
        out = out // factorial(sum(block)) * beta(block)
    return out


def color_class_sizes(parts, colors, r):
    sizes = [0] * r
    for p, c in zip(parts, colors):
        sizes[c] += p
    return sizes


def hook_count(shape) -> int:
    """Standard fillings of a straight shape, by the hook-length formula."""
    n = sum(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in shape[i + 1 :] if below > j)
            hooks *= arm + leg + 1
    return factorial(n) // hooks


def schur_dim(index) -> int:
    """r-partite standard fillings of an r-tuple of straight shapes: choose
    which entries go to each component, then fill each one."""
    sizes = [sum(part) for part in index]
    out = factorial(sum(sizes))
    for size, part in zip(sizes, index):
        out = out // factorial(size) * hook_count(part)
    return out


def h_dim(index) -> int:
    """n!/prod lambda_i! over every part of every component."""
    return factorial(sum(map(sum, index))) // prod(
        factorial(p) for part in index for p in part
    )


def _is_partition(part) -> bool:
    return all(p >= 1 for p in part) and all(a >= b for a, b in zip(part, part[1:]))


def _is_colored_perm(word, colors, n, r) -> bool:
    return sorted(word) == list(range(1, n + 1)) and len(colors) == n and all(
        0 <= c < r for c in colors
    )


# --- exact ribbon expansions ----------------------------------------------


def _cells(shape):
    """Cells (row, column) of ``{"outer", "inner"}``, top row first, each row
    right to left: the reverse reading order."""
    inner = shape["inner"] + [0] * (len(shape["outer"]) - len(shape["inner"]))
    return [(i, j) for i, (o, s) in enumerate(zip(shape["outer"], inner)) for j in range(o - 1, s - 1, -1)]


def lr_expansion(shape) -> Counter:
    """Schur expansion of a skew Schur function: the coefficient of s_nu is
    the number of semistandard fillings of content nu whose reverse reading
    word is a lattice word (Littlewood-Richardson rule)."""
    cells = _cells(shape)
    out: Counter = Counter()
    fill: dict = {}
    counts: list = []

    def rec(k):
        if k == len(cells):
            out[tuple(counts)] += 1
            return
        i, j = cells[k]
        lo = fill[i - 1, j] + 1 if (i - 1, j) in fill else 1
        hi = fill.get((i, j + 1), len(counts) + 1)
        for v in range(lo, min(hi, len(counts) + 1) + 1):
            if v == len(counts) + 1:
                counts.append(0)
            elif v > 1 and counts[v - 1] == counts[v - 2]:
                continue
            counts[v - 1] += 1
            fill[i, j] = v
            rec(k + 1)
            del fill[i, j]
            counts[v - 1] -= 1
            if counts[v - 1] == 0:
                counts.pop()

    rec(0)
    return out


def _sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def jt_h_expansion(shape) -> Counter:
    """h expansion of a skew Schur function by the Jacobi-Trudi determinant
    det(h_{lambda_i - mu_j - i + j}), keyed by the sorted h-partition."""
    lam = shape["outer"]
    mu = shape["inner"] + [0] * (len(lam) - len(shape["inner"]))
    out: Counter = Counter()
    for perm in permutations(range(len(lam))):
        degrees = [lam[i] - mu[j] - i + j for i, j in enumerate(perm)]
        if min(degrees, default=0) >= 0:
            out[tuple(sorted((d for d in degrees if d), reverse=True))] += _sign(perm)
    return Counter({k: c for k, c in out.items() if c})


def class_members(parts, colors):
    """The colored descent class of ``(parts, colors)``, generated directly:
    each part is an increasing run of its color, and two adjacent parts of
    one color meet at a descent."""
    n = sum(parts)
    word_colors = [c for p, c in zip(parts, colors) for _ in range(p)]
    blocks_of = [()]
    for p in parts:
        blocks_of = [
            bs + (b,)
            for bs in blocks_of
            for b in combinations(sorted(set(range(1, n + 1)) - {x for b0 in bs for x in b0}), p)
        ]
    out = []
    for blocks in blocks_of:
        if all(
            c0 != c1 or b0[-1] > b1[0]
            for b0, b1, c0, c1 in zip(blocks, blocks[1:], colors, colors[1:])
        ):
            out.append(([x for b in blocks for x in b], word_colors))
    return out


def _product(factors) -> Counter:
    """Product of per-color expansions into r-tuple indices."""
    out = Counter({(): 1})
    for factor in factors:
        out = Counter({k + (key,): c * d for k, c in out.items() for key, d in factor.items()})
    return out


@lru_cache(maxsize=None)
def ribbon_expansion(parts, colors, r: int, basis: str) -> dict:
    """The colored ribbon's expansion, term key -> coefficient, keyed as
    ``check_ribbon`` keys the program's terms."""
    if basis == "f":
        return dict(Counter(
            colored_descent_composition(*conj_inverse(w, z)) for w, z in class_members(parts, colors)
        ))
    expand = lr_expansion if basis == "schur" else jt_h_expansion
    return dict(_product(expand(shape) for shape in rpartite_shape(parts, colors, r)))


# --- ribbon ---------------------------------------------------------------


def check_ribbon(obj, text: str, r: int, basis: str):
    pairs = parse_pairs(text)
    parts = tuple(p for p, _ in pairs)
    colors = tuple(c for _, c in pairs)
    n = sum(parts)
    if (obj.get("n"), obj.get("r"), obj.get("basis")) != (n, r, basis):
        return f"header {obj.get('n')},{obj.get('r')},{obj.get('basis')} != {n},{r},{basis}"
    sizes = color_class_sizes(parts, colors, r)
    terms = obj["terms"]
    total = 0
    seen = set()
    for term in terms:
        coeff = term["coeff"]
        if not isinstance(coeff, int) or coeff == 0:
            return f"bad coefficient {coeff!r}"
        if basis == "f":
            key = (tuple(term["parts"]), tuple(term["colors"]))
            if sum(key[0]) != n or len(key[0]) != len(key[1]) or coeff < 0:
                return f"bad f term {term!r}"
            total += coeff
        else:
            index = [tuple(part) for part in term["index"]]
            key = tuple(index)
            if len(index) != r or not all(_is_partition(p) for p in index):
                return f"index {index!r} is not an r-tuple of partitions"
            if [sum(p) for p in index] != sizes:
                return f"index {index!r} does not match color class sizes {sizes}"
            if basis == "schur" and coeff < 0:
                return f"negative Schur coefficient at {index!r}"
            total += coeff * (schur_dim(index) if basis == "schur" else h_dim(index))
        if key in seen:
            return f"repeated index {key!r}"
        seen.add(key)
    expected = class_size(parts, colors)
    if total != expected:
        return f"sum of coeff*dim {total} != class size {expected}"
    got = {
        (tuple(t["parts"]), tuple(t["colors"])) if basis == "f"
        else tuple(tuple(part) for part in t["index"]): t["coeff"]
        for t in terms
    }
    want = ribbon_expansion(parts, colors, r, basis)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:2]
        return f"expansion differs from the recomputed one at {diff}"
    return None


# --- descent classes ------------------------------------------------------


def check_descent_class(obj, text: str, r: int, conj: bool):
    pairs = parse_pairs(text)
    parts = tuple(p for p, _ in pairs)
    colors = tuple(c for _, c in pairs)
    n = sum(parts)
    if (obj.get("n"), obj.get("r"), obj.get("conj_inverse")) != (n, r, conj):
        return "header mismatch"
    if obj.get("composition") != caret(parts, colors):
        return f"composition {obj.get('composition')!r} != {caret(parts, colors)!r}"
    members = obj["members"]
    expected = class_size(parts, colors)
    if obj["count"] != expected or len(members) != expected:
        return f"count {obj['count']}, {len(members)} members != class size {expected}"
    if len(set(members)) != len(members):
        return "repeated member"
    for member in members:
        mp = parse_pairs(member)
        word = [v for v, _ in mp]
        zs = [c for _, c in mp]
        if not _is_colored_perm(word, zs, n, r):
            return f"member {member!r} is not a colored permutation"
        if conj:
            word, zs = conj_inverse(word, zs)
        if colored_descent_composition(word, zs) != (parts, colors):
            return f"member {member!r} has another descent composition"
    return None


# --- insertion and tableau-of ---------------------------------------------


def _standard_rows(rows, inner=None) -> bool:
    """Rows strictly increase; columns strictly increase where cells stack."""
    inner = inner or [0] * len(rows)
    grid = {}
    for i, row in enumerate(rows):
        if not row or any(a >= b for a, b in zip(row, row[1:])):
            return False
        for k, x in enumerate(row):
            grid[i, inner[i] + k] = x
    return all(
        grid.get((i - 1, j)) is None or grid[i - 1, j] < x
        for (i, j), x in grid.items()
    )


def _entries(components):
    return sorted(x for comp in components for row in comp for x in row)


def check_rsk(obj, text: str, r: int):
    pairs = parse_pairs(text)
    word = [v for v, _ in pairs]
    colors = [c for _, c in pairs]
    n = len(word)
    p, q = obj["P"], obj["Q"]
    if len(p) != r or len(q) != r:
        return "P or Q does not have r components"
    shape_p = [[len(row) for row in comp] for comp in p]
    shape_q = [[len(row) for row in comp] for comp in q]
    if shape_p != shape_q:
        return f"P shape {shape_p} != Q shape {shape_q}"
    if not all(_is_partition(s) for s in shape_p):
        return f"shape {shape_p} is not straight"
    if obj.get("shape") != [{"outer": s, "inner": []} for s in shape_p]:
        return "reported shape differs from the tableaux"
    for comp in p + q:
        if not _standard_rows(comp):
            return "a component is not a standard filling"
    if _entries(p) != list(range(1, n + 1)) or _entries(q) != list(range(1, n + 1)):
        return "entries are not exactly 1..n"
    for j in range(r):
        if sorted(x for row in q[j] for x in row) != [
            i for i, c in enumerate(colors, start=1) if c == j
        ]:
            return f"Q component {j} does not hold the positions of color {j}"
        if sorted(x for row in p[j] for x in row) != sorted(
            v for v, c in zip(word, colors) if c == j
        ):
            return f"P component {j} does not hold the values of color {j}"
    if (p, q) != rsk(word, colors, r):
        return "P, Q differ from row insertion of each color's subword"
    return None


def rsk(word, colors, r):
    """Row insertion of the values of each color j into P_j, in word order,
    recording their positions in Q_j."""
    p = [[] for _ in range(r)]
    q = [[] for _ in range(r)]
    for pos, (v, c) in enumerate(zip(word, colors), start=1):
        row = 0
        while row < len(p[c]):
            bigger = [x for x in p[c][row] if x > v]
            if not bigger:
                break
            k = p[c][row].index(bigger[0])
            p[c][row][k], v = v, bigger[0]
            row += 1
        if row == len(p[c]):
            p[c].append([])
            q[c].append([])
        p[c][row].append(v)
        q[c][row].append(pos)
    return p, q


def _zigzag(parts):
    """Ribbon with bottom-to-top row lengths ``parts``, as (outer, inner)
    top row first; each row starts in the column where the row below ends."""
    starts = [0]
    for p in parts[:-1]:
        starts.append(starts[-1] + p - 1)
    rows = list(zip(starts, parts))[::-1]
    return [s + p for s, p in rows], [s for s, _ in rows]


def _direct_sum(a, b):
    """b glued above and to the right of a."""
    if not a[0]:
        return b
    shift = a[0][0]
    return [x + shift for x in b[0]] + a[0], [x + shift for x in b[1]] + a[1]


def rpartite_shape(parts, colors, r):
    """Component j: direct sum of the ribbons of the color-j rainbow blocks."""
    out = []
    for j in range(r):
        ribbons = [_zigzag(b) for b, c in rainbow_blocks(parts, colors) if c == j]
        outer, inner = reduce(_direct_sum, ribbons, ([], []))
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        out.append({"outer": outer, "inner": inner})
    return out


def check_tableau_of(obj, text: str, r: int):
    pairs = parse_pairs(text)
    word = [v for v, _ in pairs]
    colors = [c for _, c in pairs]
    n = len(word)
    parts, ccolors = colored_descent_composition(word, colors)
    if obj.get("descent_composition") != caret(parts, ccolors):
        return "descent composition differs"
    shapes = rpartite_shape(parts, ccolors, r)
    if obj["shapes"] != shapes:
        return f"shapes {obj['shapes']} != {shapes}"
    comps = obj["components"]
    for comp, shape in zip(comps, shapes):
        inner = shape["inner"] + [0] * (len(shape["outer"]) - len(shape["inner"]))
        if [len(row) for row in comp] != [o - i for o, i in zip(shape["outer"], inner)]:
            return "component rows do not fit the shape"
        if not _standard_rows(comp, inner):
            return "a component is not a standard filling"
    if len(comps) != r or _entries(comps) != list(range(1, n + 1)):
        return "entries are not exactly 1..n"
    if obj["sdes"] != colored_descent_set(*conj_inverse(word, colors)):
        return "sDes of the filling differs from that of the conjugate-inverse"
    return None


# --- enumeration ----------------------------------------------------------


def check_enum_comps(obj, n: int, r: int):
    items = obj["items"]
    expected = r * (r + 1) ** (n - 1)
    if obj["count"] != expected or len(items) != expected:
        return f"count {obj['count']}, {len(items)} items != {expected}"
    keys = set()
    for item in items:
        parts, colors = item["parts"], item["colors"]
        if (
            item["n"] != n
            or item["r"] != r
            or sum(parts) != n
            or min(parts) < 1
            or len(parts) != len(colors)
            or not all(0 <= c < r for c in colors)
        ):
            return f"bad item {item!r}"
        keys.add((tuple(parts), tuple(colors)))
    if len(keys) != expected:
        return "repeated item"
    return None


# --- verify suites --------------------------------------------------------


def _skew_shape_count(m: int) -> int:
    """Skew diagrams of m cells with no empty row or column, one per
    translation class, by trying every row-length and row-start vector."""
    count = 0
    for k in range(1, m + 1):
        for lengths in product(range(1, m + 1), repeat=k):
            if sum(lengths) != m:
                continue
            # starts listed top row first; the bottom row starts in column 0
            for starts in product(range(m), repeat=k - 1):
                s = list(starts) + [0]
                e = [a + b for a, b in zip(s, lengths)]
                if any(s[i] < s[i + 1] or e[i] < e[i + 1] for i in range(k - 1)):
                    continue
                covered = {c for a, b in zip(s, e) for c in range(a, b)}
                if covered == set(range(max(e))):
                    count += 1
    return count


def expected_cases(suite: str, max_n: int, max_r) -> int:
    ns = range(1, max_n + 1)
    if suite in ("reading-word", "ribbon-schur", "ribbon-h"):
        return sum(2 ** (n - 1) for n in ns)
    if suite == "skew-schur-f":
        return sum(_skew_shape_count(m) for m in ns)
    rs = range(1, max_r + 1)
    if suite == "rsk":
        return sum(factorial(n) * r**n for n in ns for r in rs)
    return sum(r * (r + 1) ** (n - 1) for n in ns for r in rs)


def check_verify(obj, suite: str, max_n: int, max_r):
    if obj.get("identity") != suite or obj.get("max_n") != max_n:
        return "report names another suite or range"
    if obj.get("passed") is not True or obj.get("failure_count") != 0:
        return f"report did not pass: {obj.get('failures')!r}"
    expected = expected_cases(suite, max_n, max_r)
    if obj.get("cases_checked") != expected:
        return f"cases_checked {obj.get('cases_checked')} != {expected}"
    return None
