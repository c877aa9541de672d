"""The position modulation code from its definitions, one function per
concept, slow and obvious: the one oracle of every test.  It never imports
womcode (``tests/test_spec.py`` checks that), so a rewrite of any layer is
judged here without a new oracle.

A window is a tuple (h, q, kmin, kmax): h zero slots, values 1..q for each
written slot, kmin..kmax written slots.  An image is a sequence of symbol
values, 0 the zero state and 2^m - 1 the erased one.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

# Errors carry womcode's class names, so a test compares the two by name.
DomainError, CapacityError, CorruptStateError, WriteOnceViolation = (
    type(name, (Exception,), {})
    for name in ("DomainError", "CapacityError", "CorruptStateError", "WriteOnceViolation")
)


def outcome(call, *args):
    """A call's result, or the class name of whatever error it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc).__name__


def window(m: int, h, g: int) -> tuple[int, int, int, int]:
    """Write g's window: the first of several writes may use the erased value
    and write nothing, no other may; all but the last leave h_(g+1) zeros."""
    later = h[g] if g < len(h) else 0
    if g == 1 and len(h) > 1:
        return h[0], 2**m - 1, 0, h[0] - later
    return h[g - 1], 2**m - 2, 1, h[g - 1] - later


def capacity(window) -> int:
    """The number of payloads: sum over k of C(h, k) * q^k."""
    h, q, kmin, kmax = window
    return sum(comb(h, k) * q**k for k in range(kmin, kmax + 1))


def least_growth(hnext: int, q: int, need: int) -> int:
    """The least d with capacity (hnext + d, q, 0, d) >= need; at q = 1, delta.
    No d whose (1 + q)^(hnext + d), all words of the window, is below need."""
    d = 0
    while (1 + q) ** (hnext + d) < need:
        d += 1
    while capacity((hnext + d, q, 0, d)) < need:
        d += 1
    return d


def z_bound(v) -> int:
    """The wit bound: from Z = 0, Z += delta(v_g, Z) for g = t down to 1."""
    z = 0
    for vg in reversed(v):
        z += least_growth(z, 1, vg)
    return z


def plan(m: int, v) -> tuple[int, ...]:
    """The least windows, last write first: each h_g is the least size above
    h_(g+1) whose window holds v_g messages."""
    t = len(v)
    h = [0] * t
    for g in range(t, 0, -1):
        h[g - 1] = (h[g] if g < t else 0) + 1
        while capacity(window(m, h, g)) < v[g - 1]:
            h[g - 1] += 1
    return tuple(h)


def violations(m: int, v, h) -> list[tuple[str, str]]:
    """What ``validate`` reports, write by write: a window that breaks the
    chain h_g > h_(g+1) >= 0 (h_(t+1) = 0), or one holding fewer than v_g."""
    t, out = len(h), []
    for g in range(1, t + 1):
        hg, later = h[g - 1], h[g] if g < t else 0
        if hg <= later:
            out.append(("window-order", f"write {g} needs h_{g} > h_{g + 1}, got {hg} <= {later}"))
        elif later < 0:
            out.append(("window-order", f"write {g} needs h_{g + 1} >= 0, got {later}"))
        elif (cap := capacity(window(m, h, g))) < v[g - 1]:
            kind = "last" if g == t else "first" if g == 1 else "middle"
            out.append((f"{kind}-write-capacity", f"capacity {cap} below v_{g}={v[g - 1]}"))
    return out


def rank(bits) -> int:
    """The lexical index among vectors of equal length and weight: a one at
    label i (n - 1 leftmost) with j ones from it to the right adds C(i, j).
    C(i, j) is carried from label to label: down one label it is multiplied
    by (i - j)/i, past a one by j/i.  A one at label 0 adds C(0, 1) = 0."""
    n, j, r = len(bits), sum(bits), 0
    c = comb(n - 1, j) if n else 0
    for i, b in zip(range(n - 1, 0, -1), bits):
        if b:
            r, c, j = r + c, c * j // i, j - 1
        else:
            c = c * (i - j) // i
    return r


def unrank(index: int, n: int, k: int) -> list[int]:
    """The weight-k vector of that index: label i takes a one when C(i, j),
    j the ones left to place, is at most the index left (C as in rank)."""
    bits, r, j = [0] * n, index, k
    c = comb(n - 1, k) if n else 0
    for i in range(n - 1, 0, -1):
        if j == 0:
            return bits
        if c <= r:
            bits[n - 1 - i], r, c, j = 1, r - c, c * j // i, j - 1
        else:
            c = c * (i - j) // i
    if n:
        bits[-1] = j  # label 0 takes the last one left: C(0, 1) = 0 <= r
    return bits


def digits(x: int, base: int, length: int) -> list[int]:
    """The `length` base-`base` digits of x, most significant first."""
    out = [0] * length
    for i in reversed(range(length)):
        x, out[i] = divmod(x, base)
    return out


def number(ds, base: int) -> int:
    """The number whose base-`base` digits, most significant first, are ds."""
    return sum(d * base**i for i, d in enumerate(reversed(ds)))


def payloads(window):
    """Every payload (its h slot values) in the canonical order, which this
    enumeration defines: by k ascending, then by the 0/1 mask of written
    slots in lexical order, then by the written values counted in base q,
    the leftmost written slot most significant."""
    h, q, kmin, kmax = window
    for k in range(kmin, kmax + 1):
        masks = (tuple(int(p in ones) for p in range(h)) for ones in combinations(range(h), k))
        for mask in sorted(masks):
            for values in product(range(1, q + 1), repeat=k):
                fill = iter(values)
                yield tuple(next(fill) if b else 0 for b in mask)


def payload(msg: int, window) -> tuple[int, ...]:
    """The payload at place `msg` of :func:`payloads`, by arithmetic: past
    the blocks of fewer written slots, mask rank major, values minor."""
    h, q, kmin, kmax = window
    if not 0 <= msg < capacity(window):
        raise DomainError(f"message {msg} outside window {window}")
    k = kmin
    while capacity((h, q, kmin, k)) <= msg:
        k += 1
    mask_index, value_index = divmod(msg - capacity((h, q, kmin, k - 1)), q**k)
    fill = iter(digits(value_index, q, k))
    return tuple(next(fill) + 1 if b else 0 for b in unrank(mask_index, h, k))


def message(values, window) -> int:
    """The place of a payload in :func:`payloads`, by arithmetic."""
    h, q, kmin, kmax = window
    written = [s for s in values if s]
    k = len(written)
    if len(values) != h or not kmin <= k <= kmax or not all(1 <= s <= q for s in written):
        raise DomainError(f"{tuple(values)} is no payload of window {window}")
    below = capacity((h, q, kmin, k - 1))
    return below + rank([int(s != 0) for s in values]) * q**k + number([s - 1 for s in written], q)


def generation(symbols, h) -> int:
    """The write an image holds: the first g with zero count >= h_(g+1), else t."""
    k0 = list(symbols).count(0)
    for g in range(1, len(h)):
        if k0 >= h[g]:
            return g
    return len(h)


def next_write(symbols, h) -> int:
    """Write 1 for the all-zero image, else the write after the one it holds."""
    return generation(symbols, h) + 1 if any(symbols) else 1


def erase(symbols, m: int, target: int) -> list[int]:
    """Soft-erase to `target` zeros: the leftmost stay, all else is 2^m - 1."""
    zeros = [i for i, s in enumerate(symbols) if s == 0]
    if target < 0:
        raise DomainError(f"target {target} is negative")
    if target > len(zeros):
        raise CapacityError(f"only {len(zeros)} zeros left, need {target}")
    return [0 if i in zeros[:target] else 2**m - 1 for i in range(len(symbols))]


def write(symbols, m: int, h, v, msg: int) -> list[int]:
    """The image the next write g of `msg` leaves: it erases down to h_g
    zeros, and the zeros, left to right, take its slot values: its payload,
    or for the last write the base-(2^m - 1) digits of msg + 1."""
    g = next_write(symbols, h)
    if g > len(h):
        raise CapacityError(f"all {len(h)} writes used")
    if not 0 <= msg < v[g - 1]:
        raise DomainError(f"message {msg} out of range for write {g}")
    fill = iter(digits(msg + 1, 2**m - 1, h[-1]) if g == len(h) else payload(msg, window(m, h, g)))
    return [next(fill) if s == 0 else s for s in erase(symbols, m, h[g - 1])]


def read(symbols, m: int, h, v) -> tuple[int, int]:
    """(generation, message) of an image.  The live symbols are every symbol
    for the first of several writes and the non-erased ones otherwise; they
    must be h_g values that some message below v_g writes."""
    t, erased = len(h), 2**m - 1
    g = generation(symbols, h)
    live = list(symbols) if g == 1 and t > 1 else [s for s in symbols if s != erased]
    if len(live) != h[g - 1]:
        raise CorruptStateError(f"write {g} leaves {h[g - 1]} live symbols, not {len(live)}")
    try:
        msg = number(live, erased) - 1 if g == t else message(live, window(m, h, g))
    except DomainError as exc:
        raise CorruptStateError(str(exc)) from None
    if not 0 <= msg < v[g - 1]:
        raise CorruptStateError(f"message {msg} out of range for write {g}")
    return g, msg


def reachable(m: int, v, h) -> dict[tuple[int, ...], tuple[int, int]]:
    """Every image a legal write sequence leaves -> (generation, message)."""
    last, frontier = {}, [(0,) * h[0]]
    while frontier:
        image = frontier.pop()
        g = next_write(image, h)
        for msg in range(v[g - 1] if g <= len(h) else 0):
            written = tuple(write(image, m, h, v, msg))
            assert last.setdefault(written, (g, msg)) == (g, msg), f"two writes leave {written}"
            if written != image:
                frontier.append(written)
    return last


def wits(symbols, m: int) -> list[int]:
    """The device's wits: each symbol as m bits, most significant first."""
    return [(s >> (m - 1 - b)) & 1 for s in symbols for b in range(m)]


def symbols(bits, m: int) -> list[int]:
    """Inverse of :func:`wits`."""
    return [number(bits[i : i + m], 2) for i in range(0, len(bits), m)]


def program(bits, target) -> list[int]:
    """`target` programmed onto `bits`, refused if a wit would go 1 -> 0."""
    cleared = [i for i, (old, new) in enumerate(zip(bits, target)) if old > new]
    if cleared:
        raise WriteOnceViolation(f"image would clear programmed wits at {cleared}")
    return list(target)
