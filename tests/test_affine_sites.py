"""Affine forms of access sites: closed form equals the tree walks.

Each access site decomposes its index once, on first use, into an
:class:`~repro.ir.analysis.AffineForm`; the bounds checker, the race
detector and the reuse-distance advisor read it instead of re-walking
the index.  These tests pin that the closed form is exact where it is
used:

* on every site of every kernel of the nine shipped builds, the two
  reduced twins and lenet5's five optimization levels, under each of the
  plan's binding sets, the closed-form range and ``definite`` flag equal
  what :func:`~repro.verify.interval.interval_of` gives over the loop
  scope built the per-site way, and each loop's coefficient equals the
  index's numeric step from that loop variable at 0 to 1;
* hand-built indices cover what the shipped kernels do not: mixed-sign
  monomials of one variable, a padding clamp, ``//`` and ``%``, a
  ``Select``, an unbound symbolic extent, a zero-trip loop and a
  guarded site.
"""

from dataclasses import astuple

import repro.ir as ir
from repro import counters
from repro.device import ALL_BOARDS
from repro.flow import LEVELS, build_folded, build_pipelined
from repro.flow.deploy import default_folded_config
from repro.flow.stages import MODELS
from repro.ir import expr as _e
from repro.ir.analysis import access_table, affine_form, eval_int, stride_of
from repro.models.twins import TWINS
from repro.relay import fuse_operators
from repro.verify import check_bounds
from repro.verify.bounds import _INTERVAL, _closed_range, _loop_scope
from repro.verify.interval import Interval, interval_of
from repro.verify.verifier import binding_sets_of


def _builds():
    """(label, program, binding sets by kernel) of every covered build."""
    for board in ALL_BOARDS:
        for net in ("mobilenet_v1", "resnet18"):
            config = default_folded_config(net, board)
            for label, graph in ((net, MODELS[net]()),
                                 (f"{net}@twin", TWINS[net]())):
                prog, plan = build_folded(fuse_operators(graph), config, board)
                yield f"{label}:{board.name}", prog, binding_sets_of(plan)
        fused = fuse_operators(MODELS["lenet5"]())
        for level in LEVELS:
            prog, _ = build_pipelined(fused, level, board)
            yield f"lenet5:{board.name}:{level}", prog, {}


def _cases():
    """(build, kernel, binding set) once per distinct kernel object."""
    seen = set()
    for label, prog, sets in _builds():
        for kernel in prog.kernels:
            if id(kernel) not in seen:
                seen.add(id(kernel))
                for bindings in sets.get(kernel.name, []) or [{}]:
                    yield label, kernel, bindings


CASES = list(_cases())


def _reference_scope(loops, bindings):
    """The per-site interval env and ``definite`` flag, walked loop by
    loop with :func:`interval_of` (the checker memoizes this per loop)."""
    env = {v: Interval.point(c) for v, c in bindings.items()}
    definite = True
    for loop in loops:
        ext = interval_of(loop.extent, env)
        if ext is not None and ext.hi >= 1:
            env[loop.loop_var] = Interval.extent(ext.hi)
            definite = definite and ext.lo >= 1
        else:
            env.pop(loop.loop_var, None)
            definite = False
    return env, definite


def _closed(site, bindings, trips=None):
    """The checker's ``(range, env, definite)`` for one site."""
    points = {v: Interval.point(c) for v, c in bindings.items()}
    env, definite = _loop_scope(site.loops, points,
                                {} if trips is None else trips)
    return _closed_range(site.form, env, bindings), env, definite


class TestShippedSites:
    def test_matrix_is_covered(self):
        labels = {label.split(":")[0] for label, _, _ in CASES}
        assert labels == {"mobilenet_v1", "resnet18", "mobilenet_v1@twin",
                          "resnet18@twin", "lenet5"}
        assert any(b for _, _, b in CASES)

    def test_closed_range_and_definite_equal_interval_of(self):
        closed = fallback = 0
        for label, kernel, bindings in CASES:
            trips = {}  # shared by the set's sites, as in the checker
            for site in access_table(kernel).sites:
                rng, env, definite = _closed(site, bindings, trips)
                ref_env, ref_definite = _reference_scope(site.loops, bindings)
                where = f"{label} {kernel.name} {site.buffer.name}"
                assert env == ref_env, where
                assert definite == ref_definite, where
                ref = interval_of(site.index, ref_env)
                if rng is _INTERVAL:
                    fallback += 1
                    assert site.form.rest, where
                    continue
                closed += 1
                assert rng == ref, where
        # the closed form carries the shipped builds; the clamps and the
        # flatten's div/mod keep interval_of
        assert closed > 20 * fallback > 0

    def test_coefficients_are_numeric_steps(self):
        checked = 0
        for label, kernel, bindings in CASES:
            for site in access_table(kernel).sites:
                loop_vars = [f.loop_var for f in site.loops]
                strides = site.form.strides(loop_vars, bindings)
                for var, stride in zip(loop_vars, strides):
                    if stride is None:
                        continue
                    for base in (0, 1):
                        at = dict(bindings)
                        at.update((v, base) for v in loop_vars)
                        at[var] = 0
                        lo = eval_int(site.index, at)
                        at[var] = 1
                        hi = eval_int(site.index, at)
                        if lo is not None and hi is not None:
                            assert hi - lo == stride, (label, kernel.name)
                            checked += 1
        assert checked > 1000

    def test_site_strides_are_the_unbound_coefficients(self):
        for _, kernel, _ in CASES[:40]:
            for site in access_table(kernel).sites:
                assert site.strides == {
                    f.loop_var: stride_of(site.index, f.loop_var)
                    for f in site.loops
                }


# ---------------------------------------------------------------------------
def _one_site(index, extents, *, guarded=False, scalar_args=()):
    """A kernel that stores to ``a[index]`` inside loops of ``extents``
    (outermost first), and that store's site."""
    a = ir.Buffer("a", (64,))
    body = ir.Store(a, index, 1.0)
    if guarded:
        body = ir.IfThenElse(extents[-1][0] < 1, body)
    for var, extent in reversed(extents):
        body = ir.For(var, extent, body)
    kernel = ir.Kernel("k", [a], body, scalar_args=list(scalar_args))
    (site,) = access_table(kernel).sites
    return kernel, site


class TestHandBuilt:
    def test_mixed_sign_monomials_of_one_variable_stay_unmerged(self):
        # i*W - i over i in [0, 3] with W = 5: interval arithmetic sums
        # [0, 15] and [-3, 0]; merging to 4*i would give [0, 12]
        i, w = ir.Var("i"), _e.sym("W")
        _, site = _one_site(i * w - i, [(i, 4)], scalar_args=[w])
        assert len(site.form.terms) == 2
        rng, env, _ = _closed(site, {w: 5})
        assert astuple(rng) == (-3, 15) and rng == interval_of(site.index, env)
        assert site.form.strides([i], {w: 5}) == [4]
        assert site.form.strides([i]) == [None]
        # likewise with constant scales: [0, 6] + [-3, 0], not [0, 3]
        _, site = _one_site(i * 2 - i, [(i, 4)])
        rng, env, _ = _closed(site, {})
        assert astuple(rng) == (-3, 6) and rng == interval_of(site.index, env)

    def test_padding_clamp_keeps_interval_of(self):
        i = ir.Var("i")
        index = _e.Max(i - 1, 0)
        kernel, site = _one_site(index, [(i, 8)])
        assert site.form.opaque == {i} and site.strides[i] is None
        rng, _, _ = _closed(site, {})
        assert rng is _INTERVAL
        assert check_bounds(kernel).counters["accesses_proven"] == 1

    def test_div_and_mod_go_to_the_remainder(self):
        i, j = ir.Var("i"), ir.Var("j")
        index = (i // 4) * 16 + (i % 4) + j * 4
        _, site = _one_site(index, [(i, 16), (j, 2)])
        assert site.form.opaque == {i}
        assert site.strides == {i: None, j: 4}
        assert _closed(site, {})[0] is _INTERVAL

    def test_select_goes_to_the_remainder(self):
        i = ir.Var("i")
        index = _e.Select(i < 2, i, i + 1)
        _, site = _one_site(index, [(i, 4)])
        assert site.form.opaque == {i} and site.strides[i] is None
        assert _closed(site, {})[0] is _INTERVAL

    def test_loop_free_select_is_one_factor(self):
        # a term that reads no loop variable, however built, is a factor
        i, n = ir.Var("i"), _e.sym("n")
        index = i * _e.Select(n < 4, n, 4)
        form = affine_form(index, {i})
        assert form.rest == () and len(form.terms) == 1
        assert form.strides([i], {n: 3}) == [None]  # eval_int: no Select
        assert stride_of(index, i, {n: 3}) is None
        # the bounds checker leaves such a site to interval_of, whose
        # Select is the union of its arms: [3, 4] * [0, 3], not 3 * [0, 3]
        _, site = _one_site(index, [(i, 4)], scalar_args=[n])
        rng, env, _ = _closed(site, {n: 3})
        assert rng is _INTERVAL
        assert interval_of(site.index, env) == Interval(0, 12)

    def test_unbound_symbolic_extent_leaves_the_range_unevaluable(self):
        i, n = ir.Var("i"), _e.sym("n")
        _, site = _one_site(i, [(i, n)], scalar_args=[n])
        rng, env, definite = _closed(site, {})
        assert rng is None and not definite
        assert interval_of(site.index, env) is None
        rng, _, definite = _closed(site, {n: 8})
        assert rng == Interval(0, 7) and definite

    def test_zero_trip_loop_is_indefinite(self):
        i = ir.Var("i")
        kernel, site = _one_site(i + 100, [(i, 0)])
        rng, _, definite = _closed(site, {})
        assert rng is None and not definite
        assert [d.rule for d in check_bounds(kernel).diagnostics] == ["RB002"]

    def test_guarded_site_demotes_a_violation(self):
        i = ir.Var("i")
        kernel, site = _one_site(i + 100, [(i, 4)], guarded=True)
        assert site.guarded
        rng, _, definite = _closed(site, {})
        assert rng == Interval(100, 103) and definite
        (diag,) = check_bounds(kernel).diagnostics
        assert diag.rule == "RB002" and "may not execute" in diag.message

    def test_unguarded_violation_is_an_error(self):
        i = ir.Var("i")
        kernel, _ = _one_site(i + 100, [(i, 4)])
        (diag,) = check_bounds(kernel).diagnostics
        assert diag.rule == "RB001" and "[100, 103]" in diag.message

    def test_product_of_loop_variables_is_opaque(self):
        i, j = ir.Var("i"), ir.Var("j")
        _, site = _one_site(i * j + j, [(i, 4), (j, 4)])
        assert site.form.opaque == {i, j}
        assert site.strides == {i: None, j: None}

    def test_a_site_decomposes_once_on_first_use(self):
        # every decomposition counts, a site's own and a caller's alike
        i, j = ir.Var("i"), ir.Var("j")
        with counters.delta(names=("affine_forms",)) as made:
            _, site = _one_site(i * 4 + j, [(i, 4), (j, 4)])
        assert made["affine_forms"] == 0
        with counters.delta(names=("affine_forms",)) as made:
            assert site.form is site.form
            assert site.strides == {i: 4, j: 1}
            assert stride_of(site.index, j) == 1
        assert made["affine_forms"] == 2
