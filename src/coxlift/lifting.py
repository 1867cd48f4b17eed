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
upper-bound search, no transport).

The lift is a functor, right adjoint to sheafification.  Its maps
between lift components (restriction maps along ``c <= c'`` and lifted
morphisms) send each block of a limit vector through a module matrix
and write the stacked image in the target's basis; the unit and counit
of the adjunction are read off the same presentation.  All of them
change basis through ``linalg.matrix_in_basis``.  Sheafification in the
opposite direction (reading off the degrees in the image of the grading
map), colimits along interior rays, and box-relative generator
detection also live here.

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
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, product
from operator import ge, neg
from typing import Callable, Optional, Sequence

from .cones import (
    Cone,
    leq_sigma,
    minimal_common_upper_bounds,
    minimal_elements,
    strict_interior_point,
)
from .lattice import int_vector, plain_int
from .linalg import (
    Mat,
    Vector,
    block_diagonal,
    is_isomorphism,
    matrix_in_basis,
    rank,
    row_space_basis,
    sparse_kernel_basis,
)
from .modules import GradedModule, GradedMorphism

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
    """Inverse limit of the module over P_c, with a canonical echelon basis."""
    c = int_vector(c)
    if len(c) != cone.ray_count:
        raise ValueError("degree length differs from ray count")
    if module.cone != cone:
        raise ValueError("the module lives on another cone")
    mins = minimal_elements(cone, c)
    dims = tuple(module.component(m) for m in mins)
    total = sum(dims)
    kernel = sparse_kernel_basis(_constraint_rows(cone, module, mins, dims), total)
    return LiftComponent(c, mins, dims, row_space_basis(kernel, total))


def _constraint_rows(cone: Cone, module: GradedModule, mins: Sequence[IntVector],
                     dims: Sequence[int]):
    """Compatibility rows, sparse and in pair order, built as they are pulled.

    For minimal points ``i < j`` and each minimal common upper bound ``u``
    of the pair, a row of the transport of block ``i`` to ``u`` minus the
    same row for block ``j``.
    """
    offsets = list(accumulate(dims, initial=0))
    for i, j in combinations(range(len(mins)), 2):
        if dims[i] == 0 and dims[j] == 0:
            continue
        oi, oj = offsets[i], offsets[j]
        for u in minimal_common_upper_bounds(cone, mins[i], mins[j]):
            ai = module.action(mins[i], u)
            aj = module.action(mins[j], u)
            for ri, rj in zip(ai.rows, aj.rows):
                row = {oi + col: x for col, x in enumerate(ri) if x}
                row.update((oj + col, -x) for col, x in enumerate(rj) if x)
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


def _given_or_lifted(cone: Cone, module: GradedModule, c: IntVector,
                     given: Optional[LiftComponent]) -> LiftComponent:
    """``given``, a caller's lift of the module at c, or else that lift."""
    if given is None:
        return lift_component(cone, module, c)
    if given.degree != c:
        raise ValueError(f"the component given for degree {c} is at degree {given.degree}")
    return given


def lift_action(
    cone: Cone,
    module: GradedModule,
    c: Sequence[int],
    c_prime: Sequence[int],
    source: Optional[LiftComponent] = None,
    target: Optional[LiftComponent] = None,
) -> Mat:
    """Restriction matrix lift_c -> lift_{c'} for c <= c' componentwise.

    Each minimal point of P_{c'} lies above a minimal point of P_c; the
    value there is transported from any dominated one, independent of
    the choice by the limit constraints.  When either lift is zero the
    map is zero and no transport is read.  ``source`` and ``target``,
    when given, are the lifts at c and c'; one of another degree is
    rejected.
    """
    c = int_vector(c)
    c_prime = int_vector(c_prime)
    if not all(a <= b for a, b in zip(c, c_prime)):
        raise ValueError("degrees are not componentwise comparable")
    if module.cone != cone:
        raise ValueError("the module lives on another cone")
    src = _given_or_lifted(cone, module, c, source)
    tgt = _given_or_lifted(cone, module, c_prime, target)

    bases = []
    for mk in tgt.minimal_points:
        base = None
        for i, mi in enumerate(src.minimal_points):
            if leq_sigma(cone, mi, mk):
                base = i
                break
        if base is None:
            raise AssertionError("minimal point has no dominated predecessor")
        bases.append(base)
    if not (src.dim and tgt.dim):
        return Mat.zero(tgt.dim, src.dim)
    return _blockwise(src, tgt, [(i, module.action(src.minimal_points[i], mk))
                                 for i, mk in zip(bases, tgt.minimal_points)])


def lift_morphism(
    cone: Cone,
    f: GradedMorphism,
    c: Sequence[int],
    source: Optional[LiftComponent] = None,
    target: Optional[LiftComponent] = None,
) -> Mat:
    """Matrix of the lifted morphism at Cox degree c.

    ``source`` and ``target``, when given, are the lifts of ``f.source``
    and ``f.target`` at c, so a caller that already holds them does not
    lift twice; a component of another degree is rejected.
    """
    c = int_vector(c)
    src = _given_or_lifted(cone, f.source, c, source)
    tgt = _given_or_lifted(cone, f.target, c, target)
    return _blockwise(src, tgt, [(i, f.matrix(m)) for i, m in enumerate(src.minimal_points)])


# --------------------------------------------------------------------------
# Cox-degree rules (Z^n-graded data) and sheafification


class CoxRule:
    """Protocol for Z^rays-graded data: a dim and an action per degree pair."""

    ray_count: int

    def _wrong_length(self, c: Sequence[int]) -> ValueError:
        return ValueError(f"degree {tuple(c)} has length {len(c)}, "
                          f"but the rule has {self.ray_count} rays")

    def dim(self, c: Sequence[int]) -> int:
        raise NotImplementedError

    def act(self, c: Sequence[int], c_prime: Sequence[int]) -> Mat:
        raise NotImplementedError


@dataclass(frozen=True)
class ShiftedCoxRule(CoxRule):
    """Rule of the shifted Cox ring: dim 1 exactly when c + shift >= 0."""

    ray_count: int
    shift: IntVector

    def __post_init__(self):
        object.__setattr__(self, "shift", int_vector(self.shift))
        if len(self.shift) != self.ray_count:
            raise ValueError("shift length differs from ray count")

    def dim(self, c: Sequence[int]) -> int:
        if len(c) != self.ray_count:
            raise self._wrong_length(c)
        return 1 if all(map(ge, c, map(neg, self.shift))) else 0

    def act(self, c: Sequence[int], c_prime: Sequence[int]) -> Mat:
        return Mat.ones(self.dim(c_prime), self.dim(c))


@dataclass(frozen=True)
class SpikeRule(CoxRule):
    """One-dimensional component at a single Cox degree, zero transports."""

    ray_count: int
    degree: IntVector

    def __post_init__(self):
        object.__setattr__(self, "degree", int_vector(self.degree))
        if len(self.degree) != self.ray_count:
            raise ValueError("degree length differs from ray count")

    def dim(self, c: Sequence[int]) -> int:
        if len(c) != self.ray_count:
            raise self._wrong_length(c)
        return 1 if tuple(c) == self.degree else 0

    def act(self, c: Sequence[int], c_prime: Sequence[int]) -> Mat:
        return Mat.ones(self.dim(c_prime), self.dim(c))


@dataclass(frozen=True)
class DirectSumRule(CoxRule):
    parts: tuple[CoxRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty direct sum")
        if len({p.ray_count for p in self.parts}) > 1:
            raise ValueError("direct sum parts have different ray counts")

    @property
    def ray_count(self) -> int:  # type: ignore[override]
        return self.parts[0].ray_count

    def dim(self, c: Sequence[int]) -> int:
        return sum(p.dim(c) for p in self.parts)

    def act(self, c: Sequence[int], c_prime: Sequence[int]) -> Mat:
        return block_diagonal([p.act(c, c_prime) for p in self.parts])


@dataclass(frozen=True)
class SheafifiedModule(GradedModule):
    """The graded module read off a Cox rule along the grading map.

    Component at m is the rule's component at L(m); only degrees in the
    image of L are visible.
    """

    cone: Cone
    rule: CoxRule

    def __post_init__(self):
        if self.rule.ray_count != self.cone.ray_count:
            raise ValueError(f"the Cox rule has {self.rule.ray_count} rays, "
                             f"but the cone has {self.cone.ray_count}")

    def _component(self, m: IntVector) -> int:
        return self.rule.dim(self.cone.evaluate(m))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return self.rule.act(self.cone.evaluate(m), self.cone.evaluate(m_prime))


def counit_matrix(cone: Cone, module: GradedModule, m: Sequence[int]) -> Mat:
    """The evaluation lift(E)_{L(m)} -> E_m; an isomorphism.

    P_{L(m)} has m as its unique minimal point, so the lift basis
    vectors are literally vectors of E_m.
    """
    m = int_vector(m)
    comp = lift_component(cone, module, cone.evaluate(m))
    if comp.minimal_points != (m,):
        raise AssertionError("expected a unique minimal point at an image degree")
    return Mat(comp.dim, comp.block_dims[0], [list(v) for v in comp.basis]).transpose()


def unit_map(cone: Cone, rule, c: Sequence[int]) -> Mat:
    """Natural map F_c -> lift(sheafify F)_c for a Cox rule F."""
    c = int_vector(c)
    tgt = lift_component(cone, SheafifiedModule(cone, rule), c)
    # the rule's maps from c to each minimal point, stacked; column j is e_j's image
    stacked = [row for m in tgt.minimal_points for row in rule.act(c, cone.evaluate(m)).rows]
    images = Mat(len(stacked), rule.dim(c), stacked).transpose().rows
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
    points = [tuple(k * x for x in w) for k in range(_horizon(horizon) + 1)]
    return _stabilize(tuple(module.component(p) for p in points),
                      lambda k: module.action(points[k], points[k + 1]))


def colimit_of_lift(cone: Cone, module: GradedModule, horizon: int = 16) -> ColimitResult:
    """Colimit of the lifted module along the all-ones Cox direction."""
    ones = (1,) * cone.ray_count
    degrees = [tuple(k * x for x in ones) for k in range(_horizon(horizon) + 1)]
    comps = [lift_component(cone, module, c) for c in degrees]
    return _stabilize(tuple(comp.dim for comp in comps),
                      lambda k: lift_action(cone, module, degrees[k], degrees[k + 1],
                                            source=comps[k], target=comps[k + 1]))


def _horizon(horizon: int) -> int:
    """``horizon`` if it is a nonnegative plain integer, else ``ValueError``."""
    horizon = plain_int(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return horizon


def _stabilize(dims: tuple[int, ...], step: Callable[[int], Mat]) -> ColimitResult:
    """First k where dims k, k+1, k+2 agree and ``step(k)``, ``step(k+1)``,
    the connecting maps, are isomorphisms; the second is built only when
    the first is one."""
    for k in range(len(dims) - 2):
        if (dims[k] == dims[k + 1] == dims[k + 2]
                and is_isomorphism(step(k)) and is_isomorphism(step(k + 1))):
            return ColimitResult(True, dims[k], k, dims[: k + 3])
    return ColimitResult(False, None, None, dims)


# --------------------------------------------------------------------------
# degree boxes, tables, generators


@dataclass(frozen=True)
class Box:
    lo: IntVector
    hi: IntVector

    def __post_init__(self):
        lo = int_vector(self.lo)
        hi = int_vector(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box needs lo <= hi componentwise")

    def __contains__(self, c: Sequence[int]) -> bool:
        return (len(c) == len(self.lo)
                and all(a <= x <= b for a, x, b in zip(self.lo, c, self.hi)))

    def degrees(self):
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        for c in product(*ranges):
            yield c


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
        incoming = []
        for axis in range(cone.ray_count):
            prev = tuple(x - (1 if i == axis else 0) for i, x in enumerate(c))
            mat = table.steps.get((prev, axis))
            if mat is not None:
                incoming.extend(mat.col(j) for j in range(mat.ncols))
        if not incoming or rank(Mat(len(incoming), tgt.dim, incoming)) < tgt.dim:
            found.append(c)
    return tuple(found)


@dataclass(eq=False)
class LiftTable:
    """Lift components over a degree box; one-step restriction maps on demand.

    Compared and hashed by identity, so a table, whose components are a
    dict, can still serve as the Cox rule of a ``SheafifiedModule``, whose
    hash covers its rule.
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
        out: dict[tuple[IntVector, int], Mat] = {}
        for c in self.box.degrees():
            for axis in range(self.cone.ray_count):
                nxt = tuple(x + (1 if i == axis else 0) for i, x in enumerate(c))
                if nxt in self.box:
                    out[(c, axis)] = lift_action(self.cone, self.module, c, nxt,
                                                 source=self.components[c],
                                                 target=self.components[nxt])
        return out

    def component(self, c: Sequence[int]) -> LiftComponent:
        c = int_vector(c)
        comp = self.components.get(c)
        if comp is None:
            raise ValueError(f"degree {c} lies outside the lift table's box "
                             f"{self.box.lo}..{self.box.hi}")
        return comp

    def dim(self, c: Sequence[int]) -> int:
        return self.component(c).dim

    def act(self, c: Sequence[int], c_prime: Sequence[int]) -> Mat:
        return lift_action(self.cone, self.module, c, c_prime,
                           source=self.component(c), target=self.component(c_prime))


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
