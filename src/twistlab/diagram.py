"""Combinatorial link diagrams with four-slot crossings.

A diagram is a set of crossings, a perfect matching of their strand
ends, and a count of crossing-free circles.  Crossing c owns the four
endpoints 4c..4c+3, one per slot, slots numbered counterclockwise; the
strand through slots 0 and 2 passes under the strand through slots 1
and 3.  A strand entering at slot s leaves at slot s+2 (mod 4), so the
matching plus this transit rule determines every strand walk.
A valid diagram is plane as well: ``LinkDiagram`` checks every diagram
from outside the package, and the engine's builders preserve it.

All handedness conventions follow from one planar picture: slot k of a
crossing sits at angle 90k - 45 degrees from east, putting slot 0 at
the southeast corner and giving the over strand positive slope.  Under
that picture

- an arc joining slots 0-1 or 2-3 of a single crossing is a kink of
  writhe +1, an arc joining 1-2 or 3-0 one of writhe -1;
- replacing a crossing by two parallel joins 0-1 and 2-3 is the zero
  smoothing, joins 0-3 and 1-2 the infinity smoothing;
- a self-crossing is positive exactly when the strand direction that
  enters the under strand at slot j entered the over strand at slot
  j+3 (mod 4) on the same walk.

Equality of diagrams is up to renumbering of crossings and reversal
of the global slot picture at each crossing by a half turn, which is
what ``canonical_key`` quotients out.  Its key hashes a label-free
invariant, the sizes of the faces at the corners of every crossing, and
tests isomorphism only when compared with a key of the same invariant.
"""

from __future__ import annotations

from .notation import _is_int, _shown, crossing_axes

ZERO = "zero"
INFINITY = "infinity"


class DiagramError(ValueError):
    """A malformed diagram, a bad diagram operation, or a diagram past the skein budget."""


class LinkDiagram:
    """Immutable diagram: endpoint matching and free circles, both read-only.

    Public construction validates: ``LinkDiagram(mate, free_loops)``
    rejects a matching that is not a fixed-point-free involution on a
    multiple of four endpoints or has no plane embedding (by Euler's
    formula each component with n crossings bounds n + 2 faces), or a
    loop count that is not a nonnegative int.  The skein engine's
    builders (smoothings, switches, splices, simplifications) keep a
    valid diagram valid; they go through ``_trusted``, which skips the
    checks and is for results built inside the package only.  It and the
    constructor are all that write the slots behind the two properties.
    """

    __slots__ = ("_mate", "_free_loops")
    mate = property(lambda self: self._mate)
    free_loops = property(lambda self: self._free_loops)

    def __init__(self, mate, free_loops=0):
        if not isinstance(mate, (list, tuple)):
            raise DiagramError(f"a matching is a list or tuple, got {type(mate).__name__}")
        mate = tuple(mate)
        if len(mate) % 4:
            raise DiagramError("endpoint count must be a multiple of four")
        for e, m in enumerate(mate):
            if not _is_int(m) or not 0 <= m < len(mate):
                raise DiagramError(f"endpoint {e} matched out of range: {_shown(m)}")
            if m == e or mate[m] != e:
                raise DiagramError(f"matching is not a fixed-point-free involution at {e}")
        if not _is_int(free_loops):
            raise DiagramError(f"free loop count must be an int, got {_shown(free_loops)}")
        if free_loops < 0:
            raise DiagramError("free loop count cannot be negative")
        if _face_sizes(mate)[0] != len(mate) // 4 + 2 * len(_crossing_groups(mate)):
            raise DiagramError("the diagram has no plane embedding (Euler count fails)")
        self._mate = mate
        self._free_loops = free_loops

    @classmethod
    def _trusted(cls, mate: tuple, free_loops: int) -> LinkDiagram:
        """Diagram from a valid, plane matching built inside the package, not checked."""
        d = object.__new__(cls)
        d._mate = mate
        d._free_loops = free_loops
        return d

    @property
    def crossings(self) -> int:
        return len(self._mate) // 4

    def __eq__(self, other):
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return canonical_key(self) == canonical_key(other)

    def __hash__(self):
        return hash(canonical_key(self))

    def __repr__(self):
        return f"<LinkDiagram crossings={self.crossings} loops={self.free_loops}>"


def _require_diagram(d) -> None:
    """Refuse anything but a LinkDiagram where a diagram is due."""
    if not isinstance(d, LinkDiagram):
        raise DiagramError(f"wanted a LinkDiagram, got {type(d).__name__}")


def unlink(components: int) -> LinkDiagram:
    """Crossingless diagram of the given number of circles."""
    return LinkDiagram((), components)


# ---------------------------------------------------------------------------
# strand walks

def _walks(d: LinkDiagram) -> tuple[list[list[int]], list[int], list[int]]:
    """Every component walked once, and the walk and position of every endpoint.

    A component is walked from its smallest endpoint, entering the
    crossing there, and the walks are listed in order of their smallest
    endpoint.  Each walk is its list of entry endpoints.  ``walk[e]`` is
    the index of the walk through endpoint e, and ``at[e]`` the position
    in that walk of the passage through e, whether it enters or leaves
    there.
    """
    mate = d.mate
    walk = [-1] * len(mate)
    at = [0] * len(mate)
    walks = []
    for e0 in range(len(mate)):
        if walk[e0] >= 0:
            continue
        w, entries, e = len(walks), [], e0
        while walk[e] < 0:
            walk[e] = walk[e ^ 2] = w
            at[e] = at[e ^ 2] = len(entries)
            entries.append(e)
            e = mate[e ^ 2]
        walks.append(entries)
    return walks, walk, at


def components(d: LinkDiagram) -> int:
    """Number of link components, free circles included."""
    _require_diagram(d)
    return len(_walks(d)[0]) + d.free_loops


def is_alternating(d: LinkDiagram) -> bool:
    """True when every strand walk alternates under and over passages.

    A strand leaves through the slot opposite the one it entered, which
    has the same parity, so it alternates exactly when every arc joins
    an under slot (even) to an over slot (odd).
    """
    _require_diagram(d)
    return all((e ^ m) & 1 for e, m in enumerate(d.mate))


def _self_crossing_signs(d: LinkDiagram) -> dict[int, int]:
    """Sign of every crossing both of whose strands are the same component.

    Along one direction of the component the under strand enters at
    slot j, and the crossing is positive exactly when the over strand
    enters at slot j+3 (mod 4), that is when the two entry slots differ
    in bit 1.  Crossings between distinct components are omitted, since
    their sign depends on a choice of orientation.
    """
    walks, walk, at = _walks(d)
    signs = {}
    for b in range(0, len(d.mate), 4):
        w = walk[b]
        if w == walk[b + 1]:
            entries = walks[w]
            signs[b >> 2] = 1 if (entries[at[b]] ^ entries[at[b + 1]]) & 2 else -1
    return signs


def self_writhe(d: LinkDiagram) -> int:
    """Writhe restricted to self-crossings; orientation independent."""
    _require_diagram(d)
    return sum(_self_crossing_signs(d).values())


def _traversal_entries(d: LinkDiagram) -> list[list[int]]:
    """Entry endpoints of every component's walk, from base points that switch least.

    The skein engine switches each crossing that these walks, taken in
    order, first meet on the under strand.  Each component is walked
    from the start and direction, among the 2L of a walk of L passages,
    that meet the fewest of its self-crossings under-first (Shimizu's
    warping degree).  Walked forward from position s, a self-crossing
    with its under passage at p and its over passage at q is met
    under-first when s lies in the cyclic interval (q, p]; walked in
    reverse from s, when s lies in [p, q).  One difference array per
    direction counts every start at once.  The components are then
    taken greedily, each next the one that passes under the fewest
    crossings with the components still to come.  Ties keep the order
    of ``_walks``: forward before reverse, the earlier start, the
    lower walk.  A reversed walk enters where the forward one leaves,
    at the opposite slot of the same parity.

    Switching a crossing renumbers its endpoints, so the walks of a
    switched diagram can differ.
    """
    walks, walk, at = _walks(d)
    fwd = [[0] * (len(w) + 1) for w in walks]
    rev = [[0] * (len(w) + 1) for w in walks]
    under = [[0] * len(walks) for _ in walks]  # under[i][j]: i passes under j
    for b in range(0, len(walk), 4):
        w = walk[b]
        if w != walk[b + 1]:
            under[w][walk[b + 1]] += 1
            continue
        p, q = at[b], at[b + 1]
        f, r = fwd[w], rev[w]
        f[q + 1] += 1
        f[p + 1] -= 1
        r[p] += 1
        r[q] -= 1
        (f if p < q else r)[0] += 1  # the interval wraps past the end
    based = []
    for w, entries in enumerate(walks):
        best, pick = len(entries), (False, 0)
        for back, diff in ((False, fwd[w]), (True, rev[w])):
            run = 0
            for s in range(len(entries)):
                run += diff[s]
                if run < best:
                    best, pick = run, (back, s)
        back, s = pick
        if back:
            based.append([e ^ 2 for e in entries[s::-1] + entries[:s:-1]])
        else:
            based.append(entries[s:] + entries[:s] if s else entries)
    left = list(range(len(walks)))
    out = []
    while left:
        i = min(left, key=lambda i: sum(under[i][j] for j in left))
        left.remove(i)
        out.append(based[i])
    return out


# ---------------------------------------------------------------------------
# local moves

_SMOOTH_PAIRS = {ZERO: ((0, 1), (2, 3)), INFINITY: ((0, 3), (1, 2))}

# kink arcs by slot pair, with their writhe contribution
_CURL_SIGN = {(0, 1): 1, (2, 3): 1, (1, 2): -1, (3, 0): -1}

# bridges that pass both strands of a crossing straight through it
_STRAIGHT = ((0, 2), (1, 3))


def _check_crossing(d: LinkDiagram, crossing: int) -> None:
    _require_diagram(d)
    if not _is_int(crossing) or not 0 <= crossing < d.crossings:
        raise DiagramError(f"no crossing {_shown(crossing)} in {d!r}")


def _excise(d: LinkDiagram, bridges) -> LinkDiagram:
    """Remove a set of crossings in one pass, bridging the slots of each.

    ``bridges`` maps each crossing to remove to the two slot pairs that
    join its four slots, so an endpoint is kept exactly when it has no
    bridge partner.  Kept crossings keep their order.  Every arc
    from a kept endpoint is rejoined by walking arc-bridge-arc chains
    through removed endpoints until a kept endpoint is reached; a chain
    that closes up among removed endpoints becomes a free circle.  The
    result is not checked again: smoothings and Reidemeister II pairs of
    straight bridges leave a valid, plane matching (one alone would not).
    """
    mate = d.mate
    link = [-1] * len(mate)  # bridge partner of each removed endpoint
    for x, pairs in bridges.items():
        b = 4 * x
        for s1, s2 in pairs:
            link[b + s1], link[b + s2] = b + s2, b + s1
    where = []  # new index of each kept endpoint, -1 for a removed one
    kept = 0
    for q in link:
        if q < 0:
            where.append(kept)
            kept += 1
        else:
            where.append(-1)
    new_mate = [-1] * kept
    for e, i in enumerate(where):
        if i < 0 or new_mate[i] >= 0:
            continue
        p = mate[e]
        while where[p] < 0:
            q = link[p]
            link[p] = link[q] = -1
            p = mate[q]
        new_mate[i] = where[p]
        new_mate[where[p]] = i
    loops = d.free_loops
    for x in bridges:
        for r in range(4 * x, 4 * x + 4):
            if link[r] < 0:
                continue
            loops += 1
            p = r
            while link[p] >= 0:
                q = link[p]
                link[p] = link[q] = -1
                p = mate[q]
    return LinkDiagram._trusted(tuple(new_mate), loops)


def smooth(d: LinkDiagram, crossing: int, mode: str) -> LinkDiagram:
    """Replace a crossing by one of its two planar reconnections."""
    _check_crossing(d, crossing)
    if mode not in _SMOOTH_PAIRS:
        raise DiagramError(f"unknown smoothing mode {_shown(mode)}")
    return _excise(d, {crossing: _SMOOTH_PAIRS[mode]})


def switch(d: LinkDiagram, crossing: int) -> LinkDiagram:
    """Exchange the over and under strands at one crossing.

    Since under is hard-wired to slots 0 and 2, switching rotates the
    attachment points a quarter turn: the arc at slot s reattaches at
    slot s-1.  Done twice this is a half-turn relabel of the same
    crossing, which equality treats as identical.
    """
    _check_crossing(d, crossing)
    return _rotate_crossings(d, (crossing,))


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Switch every crossing at once."""
    _require_diagram(d)
    return _rotate_crossings(d, range(d.crossings))


def _rotate_crossings(d: LinkDiagram, crossings) -> LinkDiagram:
    remap = list(range(len(d.mate)))
    for c in crossings:
        b = 4 * c
        for s in range(4):
            remap[b + s] = b + ((s - 1) % 4)
    new_mate = [0] * len(d.mate)
    for e, m in enumerate(d.mate):
        new_mate[remap[e]] = remap[m]
    return LinkDiagram._trusted(tuple(new_mate), d.free_loops)


def _bigon_partner(mate, c: int, twist: bool, skip=()) -> int:
    """The endpoint of crossing c whose arc starts a 2-gon face, or -1.

    Arcs 4c+s -> 4x+t and 4x+t+1 -> 4c+s-1 bound a 2-gon face under the
    turn rule of ``_face_sizes``, in the corner between slots s-1 and s
    of c; 4c+s is returned, and x is the crossing of its mate.  When s
    and t have equal parity one strand is over at both ends, a
    Reidemeister II bigon; when they differ the strands alternate, a
    twist bigon.  ``twist`` picks which kind is looked for.  Slots are
    tried in order, and crossings in ``skip`` are passed over.
    """
    b = 4 * c
    for s in range(4):
        m = mate[b + s]
        x = m >> 2
        if (x != c and (m ^ s) & 1 == twist and x not in skip
                and mate[(m & ~3) | ((m + 1) & 3)] == b + ((s - 1) & 3)):
            return b + s
    return -1


def twist_region(d: LinkDiagram):
    """The twist through the lowest crossing in a twist bigon, and its smoothings.

    None when d has no twist bigon.  Otherwise the chain x_1..x_k of
    crossings joined by twist bigons runs from that crossing x_1 both
    ways until it ends or closes up.  A bigon lies in corners of one
    kind at both its crossings, and bigons with distinct partners in
    opposite corners, so at every chain crossing the same mode, along,
    passes the strands on along the twist, and the other, cross, joins
    the two slots of a bigon corner.  Returns ``(k, along, (d1, d0,
    dc))``: d1 along-smooths x_2..x_k, then d0 and dc along- and
    cross-smooth x_1 in d1, the skein relation at x_1.  Chain crossings,
    each in a twist bigon, lie above x_1, so x_1 keeps its label in d1.
    """
    mate = d.mate
    for c in range(d.crossings):
        e = _bigon_partner(mate, c, True)
        if e >= 0:
            break
    else:
        return None
    # the bigon corner lies between slots s-1 and s, with s = e & 3: the
    # pairs 0-1 and 2-3 of ZERO when s is odd
    cross, along = (ZERO, INFINITY) if e & 1 else (INFINITY, ZERO)
    chain = [c]
    for _ in range(2):  # out from c past one end, then past the other
        while e >= 0:
            chain.append(mate[e] >> 2)
            e = _bigon_partner(mate, chain[-1], True, chain)
        e = _bigon_partner(mate, c, True, chain)
    d1 = _excise(d, dict.fromkeys(chain[1:], _SMOOTH_PAIRS[along]))
    d0, dc = (_excise(d1, {c: _SMOOTH_PAIRS[m]}) for m in (along, cross))
    return len(chain), along, (d1, d0, dc)


def remove_curls(d: LinkDiagram) -> tuple[LinkDiagram, int]:
    """Strip kinks and Reidemeister II bigons; return the result and the shift.

    Each pass collects, first crossing first, every kink and bigon that
    shares no crossing with an earlier one, and removes them all with one
    ``_excise``.  A kink goes by the smoothing that straightens the
    strand, infinity for writhe +1 and zero for -1; the shift is the
    writhe shed.  The two crossings of a Reidemeister II bigon, found by
    ``_bigon_partner``, go with the strands passing straight through.  A
    twist bigon stays.  Every move preserves regular isotopy, so the
    scan order only picks among results with the same polynomial.
    """
    _require_diagram(d)
    shift = 0
    while True:
        mate = d.mate
        bridges = {}
        for c in range(d.crossings):
            if c in bridges:
                continue
            b = 4 * c
            for (s1, s2), sign in _CURL_SIGN.items():
                if mate[b + s1] == b + s2:
                    shift += sign
                    bridges[c] = _SMOOTH_PAIRS[INFINITY if sign > 0 else ZERO]
                    break
            else:
                e = _bigon_partner(mate, c, False, bridges)
                if e >= 0:
                    bridges[c] = bridges[mate[e] >> 2] = _STRAIGHT
        if not bridges:
            return d, shift
        d = _excise(d, bridges)


def connected_sum(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Splice two diagrams along their first arcs.

    The first arc of a diagram is the one through endpoint 0.  Cutting
    both and rejoining crosswise merges one component of each diagram.
    A crossingless circle acts as the identity.  A splice of two valid,
    plane matchings is valid and plane, so the result is not checked again.
    """
    for d in (d1, d2):
        _require_diagram(d)
        if d.crossings == 0 and d.free_loops == 0:
            raise DiagramError("cannot sum with an empty diagram")
    if d1.crossings == 0:
        return LinkDiagram._trusted(d2.mate, d2.free_loops + d1.free_loops - 1)
    if d2.crossings == 0:
        return LinkDiagram._trusted(d1.mate, d1.free_loops + d2.free_loops - 1)
    off = len(d1.mate)
    mate = list(d1.mate) + [m + off for m in d2.mate]
    a1, b1 = 0, d1.mate[0]
    a2, b2 = off, off + d2.mate[0]
    mate[a1], mate[a2] = a2, a1
    mate[b1], mate[b2] = b2, b1
    return LinkDiagram._trusted(tuple(mate), d1.free_loops + d2.free_loops)


# ---------------------------------------------------------------------------
# standard-format builds

def build_standard(code) -> LinkDiagram:
    """Standard alternating diagram of the rational link with this code.

    A four-ended tangle grows one crossing at a time, on the axes of
    ``notation.crossing_axes`` that ``kauffman.lambda_code`` also walks:
    a horizontal crossing joins the tangle's NE and SE ends to its own
    NW and SW slots, a vertical one joins SW and SE to NW and NE.  The
    tangle is closed NW to NE and SW to SE.  Every crossing has slots
    2, 1, 3, 0 at NW, NE, SW, SE, which makes the result alternating.

    Crossing ids run in build order, so the last crossing of the last
    site always has id crossings-1.
    """
    axes = crossing_axes(code)
    arcs = []
    nw, ne, sw, se = 2, 1, 3, 0  # the ends of the first crossing
    for b in range(4, 4 * len(axes), 4):
        if axes[b >> 2]:
            arcs += [(ne, b + 2), (se, b + 3)]
            ne, se = b + 1, b
        else:
            arcs += [(sw, b + 2), (se, b + 1)]
            sw, se = b + 3, b
    arcs += [(nw, ne), (sw, se)]
    mate = [0] * (4 * len(axes))
    for e, f in arcs:
        mate[e], mate[f] = f, e
    return LinkDiagram._trusted(tuple(mate), 0)


# ---------------------------------------------------------------------------
# canonical form

def canonical_key(d: LinkDiagram) -> DiagramKey:
    """Label-independent key of the diagram, for hashing and equality.

    Two diagrams get equal keys exactly when one can be turned into the
    other by renumbering crossings and giving some crossings a
    half-turn slot relabel.  Building a key walks the faces once and
    searches nothing; see ``DiagramKey`` for how keys compare.
    """
    _require_diagram(d)
    return DiagramKey(d.mate, d.free_loops)


class DiagramKey:
    """A diagram up to crossing labels and half turns, hashed by a cheap invariant.

    The hash is that of ``invariant``: the crossing count, the free
    loops, and, for each crossing, the sizes of the faces in its four
    corners read up to a half turn, sorted.  Equality compares the
    invariants first.  When they agree, keys of the same matching are
    equal, and any others are tested for isomorphism: each crossing
    component of this key is serialized once from its lowest
    crossing (``_bfs_serial``, cached on the key) and matched against
    the unmatched components of the other key from every start crossing
    and start rotation, each attempt stopping at the first edge that
    differs.  Matching components greedily is enough, since isomorphism
    is an equivalence relation.
    """

    __slots__ = ("mate", "invariant", "_hash", "_serials")

    def __init__(self, mate: tuple, free_loops: int):
        self.mate = mate
        it = iter(_face_sizes(mate)[1])
        corners = [(a, b, c, d) if (a, b) <= (c, d) else (c, d, a, b)
                   for a, b, c, d in zip(it, it, it, it)]
        corners.sort()
        self.invariant = (len(mate) >> 2, free_loops, tuple(corners))
        self._hash = hash(self.invariant)
        self._serials = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, DiagramKey):
            return NotImplemented
        if self.invariant != other.invariant:
            return False
        if self.mate == other.mate:
            return True
        if self._serials is None:
            self._serials = [_bfs_serial(self.mate, comp[0], 0)
                             for comp in _crossing_groups(self.mate)]
        mate = other.mate
        left = _crossing_groups(mate)
        for serial in self._serials:
            for i, comp in enumerate(left):
                if len(comp) << 2 == len(serial) and any(
                    _bfs_serial(mate, start, rot0, serial)
                    for start in comp for rot0 in (0, 2)
                ):
                    del left[i]
                    break
            else:
                return False
        return True


def _crossing_groups(mate) -> list[list[int]]:
    """Crossings of each connected component of the crossing graph.

    Each component is found by a breadth-first search from its lowest
    crossing and listed in increasing order.
    """
    n = len(mate) >> 2
    group = [-1] * n
    groups = []
    for c0 in range(n):
        if group[c0] >= 0:
            continue
        g = group[c0] = len(groups)
        comp = [c0]
        for c in comp:  # the list grows while it is walked
            for m in mate[4 * c:4 * c + 4]:
                x = m >> 2
                if group[x] < 0:
                    group[x] = g
                    comp.append(x)
        comp.sort()
        groups.append(comp)
    return groups


def _bfs_serial(mate, start: int, rot0: int, target=None) -> tuple | None:
    """Serialize one crossing component from a chosen start and rotation.

    Crossings are renumbered in discovery order.  Each newly discovered
    crossing is given the half-turn rotation that brings its discovery
    slot into {0, 1}, so the serialization cannot depend on the input
    rotation state.  The edge at each slot is the int ``4 * index +
    slot``.

    With a ``target`` serialization of the same length the walk returns
    None at the first edge that differs from the target's edge at the
    same position, and the serialization only when it equals the target.
    """
    n = len(mate) >> 2
    index = [-1] * n
    rot = [0] * n
    index[start] = 0
    rot[start] = rot0
    order = [start]
    edges = []
    for c in order:  # the list grows while it is walked
        b = 4 * c
        rc = rot[c]
        for s in range(4):
            t = mate[b + (s ^ rc)]
            x = t >> 2
            i = index[x]
            if i < 0:
                i = index[x] = len(order)
                rot[x] = t & 2
                order.append(x)
            v = 4 * i + ((t ^ rot[x]) & 3)
            if target is not None and v != target[len(edges)]:
                return None
            edges.append(v)
    return tuple(edges)


# ---------------------------------------------------------------------------
# planar diagram codes

def _face_sizes(mate) -> tuple[int, list[int]]:
    """Faces of the diagram's plane graph, and the size of the face at each endpoint.

    Slots run counterclockwise, so following an arc to endpoint m and
    turning to slot m+1 of that crossing walks along one face boundary.
    The face through endpoint 4c+s fills the corner of crossing c
    between slots s-1 and s.  Faces are counted per crossing component.
    """
    turn = [(m & ~3) | ((m + 1) & 3) for m in mate]
    size = [0] * len(turn)
    faces = 0
    for e in range(len(turn)):
        if size[e]:
            continue
        faces += 1
        k = 1
        f = turn[e]
        while f != e:  # once to measure the face, once to mark it
            k += 1
            f = turn[f]
        size[e] = k
        f = turn[e]
        while f != e:
            size[f] = k
            f = turn[f]
    return faces, size


def parse_pd(pd) -> LinkDiagram:
    """Read a decoded planar diagram code: one 4-tuple of arc labels per crossing.

    Text is refused; the CLI decodes each JSON line first.  Tuple
    positions map to slots 0..3, so position 0 is the incoming under
    strand and labels are listed counterclockwise from it.  Every label
    must appear exactly twice across the whole code, which gives every
    endpoint one partner, and the matching that results goes through
    ``LinkDiagram``, which refuses one with no plane embedding.
    """
    if not isinstance(pd, (list, tuple)) or not all(
        isinstance(t, (list, tuple)) and all(type(x) in (int, str) for x in t) for t in pd
    ):
        raise DiagramError("a pd code is a list of crossings, each a list of int or str labels")
    where: dict[object, list[int]] = {}
    for c, tup in enumerate(pd):
        if len(tup) != 4:
            raise DiagramError(f"crossing {c} has {len(tup)} arc labels, wanted 4")
        for s, label in enumerate(tup):
            where.setdefault(label, []).append(4 * c + s)
    mate = [-1] * (4 * len(pd))
    for label, eps in where.items():
        if len(eps) == 1:
            raise DiagramError(f"arc label {_shown(label)} appears only once")
        if len(eps) > 2:
            raise DiagramError(f"arc label {_shown(label)} appears {len(eps)} times")
        e1, e2 = eps
        mate[e1], mate[e2] = e2, e1
    return LinkDiagram(mate)


def to_pd(d: LinkDiagram) -> list[list[int]]:
    """Planar diagram code of d, arcs labelled 1..2c by first appearance; no free loops."""
    _require_diagram(d)
    if d.free_loops:
        raise DiagramError(f"a pd code cannot hold the free loops of {d!r}")
    label: dict[int, int] = {}
    nxt = 1
    for e in range(len(d.mate)):
        if e not in label:
            label[e] = label[d.mate[e]] = nxt
            nxt += 1
    return [[label[4 * c + s] for s in range(4)] for c in range(d.crossings)]
