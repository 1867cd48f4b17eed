"""The degree-wise lift of a graded module to Cox degrees.

For a Cox degree ``c`` the lift component is the inverse limit of the
module over the up-set ``P_c = {m : L(m) >= c}``.  It is presented as
the subspace of the direct sum of components at the minimal points of
``P_c`` cut out by compatibility at minimal common upper bounds; the
constraints there propagate to all common upper bounds because the
transports factor.  Minimal points with zero component stay in the
presentation on purpose: their constraints can annihilate other
coordinates.  The constraint rows are streamed, sparse and in pair
order, into ``linalg.sparse_kernel_basis``; once they have full rank the
lift is zero, and the pairs after that point are never visited (no
upper-bound search, no transport).  Their columns are numbered from the
right, so the kernel comes out in RREF from that one elimination.

The lift is a functor, right adjoint to sheafification.  Its maps
between lift components (restriction maps along ``c <= c'`` and lifted
morphisms) send each block of a limit vector through a module matrix
and write the stacked image in the target's basis; the unit and counit
of the adjunction are read off the same presentation.  All of them
change basis through ``linalg.matrix_in_basis``.  Each map has a public
entry (``lift_action``, ``lift_morphism``) that reads its degrees and
lifts both ends, and a hook (``_restriction``, ``_lifted_morphism``)
that a caller already holding both components calls instead.
Sheafification, the other direction, is ``modules.SheafifiedModule``: a
Cox rule read off along the grading map.  Colimit walks along interior
rays and box-relative generator detection also live here.

Degree computations are independent and not memoized here: the cone
memoizes its minimal points, a finitely presented module its reduced
relations, and a reflexive description its intersections and the
inclusions between them.  A sweep can share its degrees out over
forked child processes: the coordinator lifts one share itself, each
child lifts another and pipes it back pickled, and the shares are
merged in degree order, so output is byte-identical at any width.  The
width is capped at the number of degrees and of usable CPUs.  A sweep
computes only the components; its one-step restriction maps are built
the first time they are read.

Each public function reads its degrees and points once (``Cone.degree``,
``Cone.point``); on the points it then builds, the lift calls only hooks:
``_minimal_elements``, ``_minimal_upper_bounds`` and ``Cone._cox`` of the
cone, ``_component``, ``_action`` and ``_matrix`` of modules and morphisms,
and ``_restriction`` and ``_lifted_morphism`` of its own maps.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, combinations, product
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .cones import Cone, _minimal_elements, _minimal_upper_bounds, cox_le, strict_interior_point
from .lattice import int_vector, nonnegative_int, plain_int
from .linalg import (
    Mat,
    Vector,
    is_isomorphism,
    matrix_in_basis,
    rank,
    sparse_kernel_basis,
)
from .modules import CoxRule, GradedModule, GradedMorphism, SheafifiedModule

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class LiftComponent:
    """One Cox degree of the lift, presented at the minimal points of P_c."""

    degree: IntVector
    minimal_points: tuple[IntVector, ...]
    block_dims: tuple[int, ...]
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def block_slice(self, i: int) -> slice:
        start = sum(self.block_dims[:i])
        return slice(start, start + self.block_dims[i])


def lift_component(cone: Cone, module: GradedModule, c: Sequence[int]) -> LiftComponent:
    """Inverse limit of the module over P_c, with its canonical RREF basis.

    The constraint columns are numbered from the right, so each kernel
    vector of ``sparse_kernel_basis`` has its 1 at a free column and its
    other entries at pivot columns to the right of it in the lift's own
    order: reversed entrywise and listed in reverse, they are the RREF
    basis, from one elimination.
    """
    c = cone.degree(c)
    if module.cone != cone:
        raise ValueError("the module lives on another cone")
    mins = _minimal_elements(cone, c)
    dims = tuple(module._component(m) for m in mins)
    total = sum(dims)
    kernel = sparse_kernel_basis(_constraint_rows(cone, module, mins, dims), total)
    return LiftComponent(c, mins, dims, tuple(v[::-1] for v in reversed(kernel)))


def _constraint_rows(cone: Cone, module: GradedModule, mins: Sequence[IntVector],
                     dims: Sequence[int]):
    """Compatibility rows, sparse and in pair order, built as they are pulled.

    For minimal points ``i < j`` and each minimal common upper bound ``u``
    of the pair, a row of the transport of block ``i`` to ``u`` minus the
    same row for block ``j``.  The lift's column ``k`` is the row's column
    ``total - 1 - k``.
    """
    last = sum(dims) - 1
    ends = [last - offset for offset in accumulate(dims, initial=0)]
    cox = [cone._cox(m) for m in mins]
    for i, j in combinations(range(len(mins)), 2):
        if dims[i] == 0 and dims[j] == 0:
            continue
        ei, ej = ends[i], ends[j]
        for u in _minimal_upper_bounds(cone, cox[i], cox[j]):
            ai = module._action(mins[i], u)
            aj = module._action(mins[j], u)
            for ri, rj in zip(ai.rows, aj.rows):
                row = {ei - col: x for col, x in enumerate(ri) if x}
                row.update((ej - col, -x) for col, x in enumerate(rj) if x)
                yield row


def _blockwise(src: LiftComponent, tgt: LiftComponent,
               blocks: Sequence[tuple[int, Mat]]) -> Mat:
    """Matrix of the map sending each block of a source vector into the target.

    ``blocks`` holds one ``(i, mat)`` per target block: that block is
    ``mat`` applied to source block ``i``.  The stacked images are written
    in the target's basis.
    """
    images = ([x for i, mat in blocks for x in mat.vec(vec[src.block_slice(i)])]
              for vec in src.basis)
    return matrix_in_basis(tgt.basis, images)


def lift_action(cone: Cone, module: GradedModule, c: Sequence[int],
                c_prime: Sequence[int]) -> Mat:
    """Restriction matrix lift_c -> lift_{c'} for c <= c' componentwise."""
    c, c_prime = cone.degree(c), cone.degree(c_prime)
    if not cox_le(c, c_prime):
        raise ValueError("degrees are not componentwise comparable")
    if module.cone != cone:
        raise ValueError("the module lives on another cone")
    return _restriction(module, lift_component(cone, module, c),
                        lift_component(cone, module, c_prime))


def _restriction(module: GradedModule, src: LiftComponent, tgt: LiftComponent) -> Mat:
    """Restriction matrix between two lifts of ``module`` at degrees c <= c'.

    Each minimal point of P_{c'} lies above a minimal point of P_c; the
    value there is transported from any dominated one, independent of
    the choice by the limit constraints.  When either lift is zero the
    map is zero, returned before any predecessor is searched.
    """
    if not (src.dim and tgt.dim):
        return Mat.zero(tgt.dim, src.dim)
    cox = module.cone._cox
    below = [cox(mi) for mi in src.minimal_points]
    blocks = []
    for mk in tgt.minimal_points:
        top = cox(mk)
        i = next((i for i, b in enumerate(below) if cox_le(b, top)), None)
        if i is None:
            raise AssertionError("minimal point has no dominated predecessor")
        blocks.append((i, module._action(src.minimal_points[i], mk)))
    return _blockwise(src, tgt, blocks)


def lift_morphism(cone: Cone, f: GradedMorphism, c: Sequence[int]) -> Mat:
    """Matrix of the lifted morphism at Cox degree c."""
    c = cone.degree(c)
    return _lifted_morphism(f, lift_component(cone, f.source, c),
                            lift_component(cone, f.target, c))


def _lifted_morphism(f: GradedMorphism, src: LiftComponent, tgt: LiftComponent) -> Mat:
    """The lifted morphism between the lifts of ``f.source`` and ``f.target`` at one degree."""
    return _blockwise(src, tgt, [(i, f._matrix(m)) for i, m in enumerate(src.minimal_points)])


# --------------------------------------------------------------------------
# the unit and counit of the adjunction


def counit_matrix(cone: Cone, module: GradedModule, m: Sequence[int]) -> Mat:
    """The evaluation lift(E)_{L(m)} -> E_m; an isomorphism.

    P_{L(m)} has m as its unique minimal point, so the lift basis
    vectors are literally vectors of E_m.
    """
    m = cone.point(m)
    comp = lift_component(cone, module, cone._cox(m))
    if comp.minimal_points != (m,):
        raise AssertionError("expected a unique minimal point at an image degree")
    return Mat(comp.dim, comp.block_dims[0], [list(v) for v in comp.basis]).transpose()


def unit_map(cone: Cone, rule, c: Sequence[int]) -> Mat:
    """Natural map F_c -> lift(sheafify F)_c for a Cox rule F."""
    tgt = lift_component(cone, SheafifiedModule(cone, rule), c)
    c = tgt.degree  # read and checked by the lift, and below L(m) at each minimal point
    # the rule's maps from c to each minimal point, stacked; column j is e_j's image
    stacked = [row for m in tgt.minimal_points for row in rule._act(c, cone._cox(m)).rows]
    images = Mat(len(stacked), rule._dim(c), stacked).transpose().rows
    return matrix_in_basis(tgt.basis, images)


# --------------------------------------------------------------------------
# colimits


@dataclass(frozen=True)
class ColimitResult:
    stabilized: bool
    dim: Optional[int]
    certificate_index: Optional[int]
    dims: tuple[int, ...]


def colimit(cone: Cone, module: GradedModule, horizon: int = 16) -> ColimitResult:
    """Colimit dimension along an interior ray, with a stabilization certificate.

    Walks k * w for an interior dual-cone point w; certifies once three
    consecutive dimensions agree and both connecting maps are
    isomorphisms.  Reports honestly when the horizon is exhausted.
    """
    if module.cone != cone:
        raise ValueError("the module lives on another cone")
    w = strict_interior_point(cone)
    # L(w) >= 1 on every ray, so each point lies below the next
    points = (tuple(k * x for x in w) for k in range(nonnegative_int(horizon, "horizon") + 1))
    return _stabilize(points, module._component, module._action)


def colimit_of_lift(cone: Cone, module: GradedModule, horizon: int = 16) -> ColimitResult:
    """Colimit of the lifted module along the all-ones Cox direction."""
    comps = (lift_component(cone, module, (k,) * cone.ray_count)
             for k in range(nonnegative_int(horizon, "horizon") + 1))
    return _stabilize(comps, attrgetter("dim"), partial(_restriction, module))


def _stabilize(walk: Iterable, dim: Callable, step: Callable) -> ColimitResult:
    """First k where the dims of walk entries k, k+1, k+2 agree and ``step``
    between them, the connecting maps, are isomorphisms; the second map is
    built only when the first is one, and each entry when the walk reaches it."""
    seen, dims = [], []
    for k, entry in enumerate(walk, -2):
        seen.append(entry)
        dims.append(dim(entry))
        if (k >= 0 and dims[k] == dims[k + 1] == dims[k + 2]
                and is_isomorphism(step(*seen[k:k + 2])) and is_isomorphism(step(*seen[k + 1:]))):
            return ColimitResult(True, dims[k], k, tuple(dims))
    return ColimitResult(False, None, None, tuple(dims))


# --------------------------------------------------------------------------
# degree boxes, tables, generators


@dataclass(frozen=True)
class Box:
    lo: IntVector
    hi: IntVector

    def __post_init__(self):
        lo, hi = int_vector(self.lo), int_vector(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError(f"box corners {lo} and {hi} have lengths {len(lo)} and {len(hi)}")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box needs lo <= hi componentwise")

    def __contains__(self, c: Sequence[int]) -> bool:
        return (len(c) == len(self.lo)
                and all(a <= x <= b for a, x, b in zip(self.lo, c, self.hi)))

    def degrees(self):
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        for c in product(*ranges):
            yield c


def _unit_steps(c: IntVector, by: int):
    """c + by * e_axis for each axis in turn."""
    return (c[:axis] + (c[axis] + by,) + c[axis + 1:] for axis in range(len(c)))


def minimal_generators_in_box(cone: Cone, module: GradedModule, box: Box) -> tuple[IntVector, ...]:
    """Degrees in the box whose lift is not spanned from strictly below.

    Box-relative evidence only: a degree is reported when the images of
    all restriction maps from its in-box predecessors do not span the
    component.
    """
    table = lift_table(cone, module, box)
    found = []
    for c, tgt in table.components.items():
        if tgt.dim == 0:
            continue
        incoming = [col for prev in _unit_steps(c, -1) if prev in table.components
                    for col in table._act(prev, c).transpose().rows]
        if not incoming or rank(Mat(len(incoming), tgt.dim, incoming)) < tgt.dim:
            found.append(c)
    return tuple(found)


@dataclass(eq=False)
class LiftTable(CoxRule):
    """Lift components over a degree box; one-step restriction maps on demand.

    A Cox rule: its component at c is the lift's.  Compared and hashed by
    identity, so a table, whose components are a dict, can still serve as
    the Cox rule of a ``SheafifiedModule``, whose hash covers its rule.
    """

    cone: Cone
    module: GradedModule
    box: Box
    components: dict[IntVector, LiftComponent]

    @property
    def ray_count(self) -> int:
        return self.cone.ray_count

    @cached_property
    def steps(self) -> dict[tuple[IntVector, int], Mat]:
        """Restriction map from c to c + e_axis for every such pair in the box."""
        return {(c, axis): self._act(c, nxt) for c in self.components
                for axis, nxt in enumerate(_unit_steps(c, 1)) if nxt in self.components}

    def component(self, c: Sequence[int]) -> LiftComponent:
        return self._component(self._degree(c))

    def _component(self, c: IntVector) -> LiftComponent:
        comp = self.components.get(c)
        if comp is None:
            raise ValueError(f"degree {c} lies outside the lift table's box "
                             f"{self.box.lo}..{self.box.hi}")
        return comp

    def _dim(self, c: IntVector) -> int:
        return self._component(c).dim

    def _act(self, c: IntVector, c_prime: IntVector) -> Mat:
        return _restriction(self.module, self._component(c), self._component(c_prime))


def _lift_share(cone: Cone, module: GradedModule,
                degrees: Sequence[IntVector]) -> list[tuple[IntVector, LiftComponent]]:
    return [(c, lift_component(cone, module, c)) for c in degrees]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_share(cone: Cone, module: GradedModule,
                degrees: Sequence[IntVector]) -> tuple[int, int]:
    """Fork a child that lifts ``degrees``; its pid and the read end of its pipe.

    The child pickles ``(True, pairs)`` or ``(False, exception)`` to the
    pipe and leaves through ``os._exit``, so it never returns here and
    runs none of the coordinator's exit handlers; a result it cannot
    pickle leaves the pipe empty and the exit status 1.
    """
    import pickle

    if not hasattr(os, "fork"):
        raise OSError("os.fork is not available on this platform")
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            result = (True, _lift_share(cone, module, degrees))
        except BaseException as exc:  # the coordinator raises it again
            result = (False, exc)
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int) -> list[tuple[IntVector, LiftComponent]]:
    """Read a child's share to the end of its pipe and reap the child.

    Re-raises the exception the child's share raised; a child that left
    no result raises ``RuntimeError`` naming its exit status.
    """
    import pickle

    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not data:
        raise RuntimeError(f"lift worker {pid} left no result (exit status {status})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _fan_out(cone: Cone, module: GradedModule, degrees: list[IntVector],
             workers: int) -> dict[IntVector, LiftComponent]:
    """Lift ``degrees`` in ``workers`` shares, merged in degree order.

    Share 0 and every share whose fork is refused are lifted here.  Every
    child is reaped before this returns or raises; if this process fails
    first, the children still running are killed.
    """
    shares = [degrees[i::workers] for i in range(workers)]
    own = shares[0]
    pending: list[tuple[int, int]] = []
    refused = None
    try:
        for share in shares[1:]:
            try:
                pending.append(_fork_share(cone, module, share))
            except OSError as exc:
                refused = refused or exc
                own.extend(share)
        if refused is not None:
            warnings.warn(f"cannot fork a worker ({refused}); computing {len(own)} of the "
                          f"{len(degrees)} degrees in this process", RuntimeWarning,
                          stacklevel=3)
        found = dict(_lift_share(cone, module, own))
        while pending:
            pid, read_fd = pending.pop(0)
            found.update(_collect(pid, read_fd))
    finally:
        if pending:
            import signal

            for pid, read_fd in pending:
                os.close(read_fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return {c: found[c] for c in degrees}


def lift_table(cone: Cone, module: GradedModule, box: Box, jobs: int = 1) -> LiftTable:
    """Sweep a degree box; ``jobs > 1`` shares the degrees out over forked children.

    The width is ``jobs`` capped at the number of degrees and of usable
    CPUs.  The degrees are dealt round-robin into one share per worker;
    this process lifts the first share while forked children lift the
    others and pipe them back pickled, and the shares are merged in
    degree order, so the table does not depend on the width.  An
    exception raised in a child is raised again here; a child that exits
    without a result raises ``RuntimeError``.  If a fork is refused
    (``OSError``, or no ``os.fork`` on this platform), one
    ``RuntimeWarning`` names the error and this process lifts that share
    too.  At width 1 nothing is forked; above it, call from a process
    that runs no other thread, since a fork copies only the calling one.
    The restriction maps are left to ``LiftTable.steps``, built on first
    read.
    """
    jobs = plain_int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    degrees = list(box.degrees())
    workers = min(jobs, len(degrees), _usable_cpus())
    return LiftTable(cone, module, box, _fan_out(cone, module, degrees, workers))
