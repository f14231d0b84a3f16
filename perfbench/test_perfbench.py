"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import sys

import run

sys.path.insert(0, str(run.SRC))

import tetspine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_spans_and_aggregates():
    # a [0, 10] holds b [1, 4], which holds c [2, 3], and two aggregated d calls
    clock = FakeClock(0, 1, 2, 3, 4, 5, 6, 7, 9, 10)
    tr = tracing.Tracer(clock)
    tr.enter("a", False)
    tr.enter("b", False)
    tr.enter("c", False)
    tr.exit()
    tr.exit()
    tr.enter("d", True)
    tr.exit()
    tr.enter("d", True)
    tr.exit()
    tr.exit()
    s = {name: (st.calls, st.s, st.self_s) for name, st in tr.stats.items()}
    assert s["c"] == (1, 1, 1)
    assert s["b"] == (1, 3, 2)
    assert s["d"] == (2, 3, 3)
    assert s["a"] == (1, 10, 10 - 3 - 3)
    spans = {name: (span_id, parent) for span_id, parent, name, *_ in tr.spans}
    assert spans["c"][1] == spans["b"][0]
    assert spans["b"][1] == spans["a"][0]
    assert spans["a"][1] == 0
    assert tr.aggregates == {(spans["a"][0], "d"): [2, 3]}


def test_install_wraps_every_module_that_binds_a_name():
    originals = {t.name: tracing._resolve(t)[2] for t in tracing.TARGETS}
    tr = tracing.Tracer()
    inst = tracing.install(tr)
    try:
        assert inst.absent == []
        assert set(inst.bindings["spine.dual_spine"]) >= {
            "tetspine.dual_spine",
            "tetspine.spine.dual_spine",
            "tetspine.surfaces.dual_spine",
            "tetspine.cli.dual_spine",
        }
        assert set(inst.bindings["enum.enumerate_masks"]) >= {
            "tetspine._enum.enumerate_masks",
            "tetspine.spine.enumerate_masks",
        }
        for mod in tracing._package_modules():
            for key, value in vars(mod).items():
                assert not any(value is orig for orig in originals.values()), f"{mod.__name__}.{key}"
        tetspine.t_manifold(tetspine.build_Tpq(7, 2))
        for name in ("lens.build_Tpq", "triangulation.Triangulation.init", "spine.t_manifold",
                     "spine.dual_spine", "spine.t_spine", "enum.enumerate_masks", "spine.subpolyhedron"):
            assert tr.stats[name].calls >= 1, name
        assert tr.counts["enum.masks"] == tr.stats["spine.subpolyhedron"].calls
    finally:
        inst.uninstall()
    assert tetspine.spine.dual_spine is originals["spine.dual_spine"]
    assert tetspine.Triangulation.__init__ is originals["triangulation.Triangulation.init"]


def test_missing_name_is_recorded_as_absent():
    targets = (
        tracing.Target("spine.gone", "spine", "no_such_function"),
        tracing.Target("gone.f", "no_such_module", "f"),
        tracing.Target("triangulation.Triangulation.gone", "triangulation", "Triangulation.gone"),
        tracing.Target("homology.h1", "homology", "h1"),
    )
    inst = tracing.install(tracing.Tracer(), targets)
    try:
        assert inst.absent == ["spine.gone", "gone.f", "triangulation.Triangulation.gone"]
        assert "tetspine.homology.h1" in inst.bindings["homology.h1"]
    finally:
        inst.uninstall()


def test_lens_census_seed_zero_is_the_identity_labeling():
    wl = workloads.WORKLOADS["lens-census"]
    for s in wl.setup(0):
        tet_perm, vert_perms = s.labels
        assert tet_perm == tuple(range(len(tet_perm)))
        assert all(v == (0, 1, 2, 3) for v in vert_perms)
        built = tetspine.build_Tpq(s.p, s.q)
        assert tetspine.Triangulation(built.n, workloads.relabel_table(built, s.labels)) == built
    relabeled = [s.labels for s in wl.setup(1)]
    assert any(labels != s.labels for labels, s in zip(relabeled, wl.setup(0)))


def test_count_gate_rejects_changed_results_and_work():
    a = run.Pass(1.0, [1.0], [("x", "1", 3)], [], {"f": (2, 0.5, 0.5, 0)}, {"surfaces.entries": 3})
    same = run.Pass(1.1, [1.1], [("x", "1", 3)], [], {"f": (2, 0.6, 0.6, 0)}, {"surfaces.entries": 3})
    more = run.Pass(1.1, [1.1], [("x", "1", 3)], [], {"f": (3, 0.6, 0.6, 0)}, {"surfaces.entries": 3})
    other = run.Pass(1.0, [1.0], [("x", "1+e", 3)], [], {}, {})
    assert run.count_gate([a], [same, same]) == []
    assert run.count_gate([a, other], []) != []
    assert run.count_gate([a], [same, more]) != []


def test_each_subject_is_timed_by_its_fastest_pass():
    passes = [run.Pass(3.0, [1.0, 2.0], [], []), run.Pass(3.0, [1.5, 0.5], [], []), run.Pass(9.0, [4.0, 5.0], [], [])]
    assert run.best_times(passes) == [1.0, 0.5]
    assert run.end_to_end(0.1, passes)["run_s"]["value"] == 1.5
