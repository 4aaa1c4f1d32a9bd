import importlib
import json
import os
import subprocess
import sys

import pytest

from freesplit import cli
from freesplit.automorphisms import (MapTables, abelianization, compose_maps,
                                     identity_map, outer_equal)
from freesplit.classify import (INNER_POWER_MAX_LETTERS, POWER_CAP,
                                _inner_power, bounded_path_witness, classify,
                                periodic_vertex_witness, rank2_classify)
from freesplit.config import Config
from freesplit.errors import FixtureInvalid, InvalidInput, NotApplicable
from freesplit.fixtures import ExampleSpec, fixture, fixture_names
from freesplit.graphs import (compose, identity_graph_map, marked_rose,
                              parse_marked_graph, print_marked_graph,
                              realize_rose_endo, rose_map)
from freesplit.whitehead import FILLS, FillsVerdict
from freesplit.words import BWD, FWD, strip_cyclic

from braids import artin, braid_maps, braid_type

# the package's ``classify`` function shadows the module of that name
classify_mod = importlib.import_module("freesplit.classify")

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# A rank-2 rose with the shear x1 -> x1 x2, in the text format.
ROSE2_SHEAR = ("VERTICES\nv\nEDGES\nx1 v v\nx2 v v\n"
               "MARKING\nx1 x1\nx2 x2\nMAP\nx1 x1 x2\nx2 x2\n")


# A theta graph: edges a, b, c from u to v, marked x1 = a b', x2 = a c',
# with the identity map; the edge b alone is an open path.
THETA = ("VERTICES\nu\nv\nEDGES\na u v\nb u v\nc u v\n"
         "MARKING\nx1 a b'\nx2 a c'\nMAP\na a\nb b\nc c\n")


class TestRank2Classify:
    def test_trace_three(self):
        assert rank2_classify([[2, 1], [1, 1]]) == "Loxodromic"

    def test_trace_two(self):
        assert rank2_classify([[1, 1], [0, 1]]) == "NotLoxodromic"

    def test_trace_zero(self):
        assert rank2_classify([[0, -1], [1, 0]]) == "NotLoxodromic"

    @pytest.mark.parametrize("matrix, verdict", [
        ([[1, 1], [1, 0]], "Loxodromic"),
        ([[2, 1], [1, 0]], "Loxodromic"),
        ([[0, 1], [1, 0]], "NotLoxodromic"),
    ])
    def test_determinant_minus_one(self, matrix, verdict):
        # det -1 is hyperbolic exactly when the trace is nonzero
        assert rank2_classify(matrix) == verdict

    def test_bad_determinant(self):
        with pytest.raises(InvalidInput):
            rank2_classify([[2, 0], [0, 1]])

    def test_bad_shape(self):
        with pytest.raises(InvalidInput):
            rank2_classify([[1, 0, 0], [0, 1, 0]])


def rank2_products(max_length):
    """Distinct rank-2 basis maps that are products of at most
    ``max_length`` of x1<->x2, x1 -> x1^-1 and x1 -> x1 x2, breadth first
    from the identity."""
    x, y, X = FWD[0], FWD[1], BWD[0]
    gens = ((y, x), (X, y), (x + y, y))
    order = [identity_map(2)]
    seen = set(order)
    frontier = order[:]
    for _ in range(max_length):
        nxt = []
        for bm in frontier:
            for gen in gens:
                prod = compose_maps(gen, bm)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        order += nxt
        frontier = nxt
    return order


class TestRank2Sweep:
    """Every product of at most six rank-2 generators, classified."""

    def test_sweep_matches_oracle_and_golden(self):
        # at the default Config: no exception, every decided map Loxodromic
        # exactly when the GL2(Z) oracle says so and PeriodicVertex
        # otherwise (no rank-2 map has BoundedOrbits), at least the 270
        # maps decided when length six was added, and the products of at
        # most four (listed first, breadth first) as in the golden file
        with open(os.path.join(GOLDEN, "rank2_sweep4_classify.json")) as fh:
            golden = json.load(fh)
        maps = rank2_products(6)
        assert len(maps) == 333
        assert maps[:67] == rank2_products(4)
        mg = marked_rose(2)
        got = {}
        decided = 0
        for i, bm in enumerate(maps):
            c = classify(ExampleSpec("sweep", mg,
                                     {"f": realize_rose_endo(mg, bm)}, None))
            if c.verdict != "Unknown":
                decided += 1
                oracle = rank2_classify(abelianization(bm))
                assert c.verdict == ("Loxodromic" if oracle == "Loxodromic"
                                     else "PeriodicVertex"), bm
            if i < 67:
                got["/".join(bm)] = [c.verdict, c.witness_kind, c.stage,
                                     c.power]
        assert got == golden
        assert decided >= 270


def inner_power_reference(mg, f):
    """_inner_power as it searched before the abelianization screen:
    every power up to the cap is composed and screened."""
    basis = identity_map(mg.rank)
    step = MapTables(mg.induced_rose_map(f))
    cur = basis
    for p in range(1, POWER_CAP + 1):
        cur = compose_maps(step, cur)
        if max(len(w) for w in cur) > INNER_POWER_MAX_LETTERS:
            return None
        if all(strip_cyclic(cur[i]) in (FWD[i], BWD[i])
               for i in range(mg.rank)):
            verdict, _ = outer_equal(cur, basis)
            if verdict == "Equal":
                return p
    return None


class TestInnerPower:
    def test_matches_search_of_every_power(self):
        mg = marked_rose(2)
        found = set()
        for bm in rank2_products(6):
            f = realize_rose_endo(mg, bm)
            p = _inner_power(mg, f)
            assert p == inner_power_reference(mg, f), bm
            found.add(p)
        assert found == {None, 1, 2, 3, 4, 6}

    @pytest.mark.parametrize("rank, bm, p", [
        (2, ("b", "a"), 2),
        (2, ("b", "A"), 4),
        (2, ("ab", "A"), 6),
        # (sigma1 sigma2)^3 is conjugation by x1 x2 x3
        (3, compose_maps(artin(1), artin(2)), 3),
        (3, artin(1), None),
    ], ids=["swap", "quarter_turn", "sixth_turn", "sigma1sigma2", "sigma1"])
    def test_named_maps(self, rank, bm, p):
        mg = marked_rose(rank)
        f = realize_rose_endo(mg, bm)
        assert _inner_power(mg, f) == p

    def test_infinite_order_on_h1_composes_nothing(self, monkeypatch):
        composed = []

        def counted(f, g):
            composed.append(g)
            return compose_maps(f, g)

        monkeypatch.setattr(classify_mod, "compose_maps", counted)
        mg = marked_rose(2)
        for bm in (("a", "ba"), ("aba", "ab")):
            assert _inner_power(mg, realize_rose_endo(mg, bm)) is None
        assert composed == []


class TestBraids:
    """The 115 maps of the 3-braid words of length at most four, against
    the trace oracle of ``braids``."""

    def test_slice_matches_trace_oracle(self):
        maps = braid_maps(4)
        assert len(maps) == 115
        assert braid_type((1, -2)) == "pseudo-Anosov"  # s1 s2^-1, trace 3
        assert (1, -2) in maps
        allowed = {"pseudo-Anosov": {"Loxodromic", "Unknown"},
                   "reducible": {"PeriodicVertex", "Unknown"},
                   "periodic": {"PeriodicVertex"}}
        mg = marked_rose(3)
        for word, bm in maps.items():
            c = classify(ExampleSpec("braid", mg,
                                     {"f": realize_rose_endo(mg, bm)}, None))
            assert c.verdict in allowed[braid_type(word)], word


class TestPeriodicWitness:
    def test_shear(self):
        mg = marked_rose(2, ["x", "y"])
        f = rose_map(mg, {"x": "x y", "y": "y"})
        s, rel = periodic_vertex_witness(mg, f)
        assert rel.holds
        assert s.pair.h_slots == frozenset({mg.graph.slot_of["y"]})

    def test_identity_any_coordinate(self):
        mg = marked_rose(2)
        s, rel = periodic_vertex_witness(mg, identity_graph_map(mg.graph))
        assert rel.holds

    def test_filling_fixture_not_applicable(self, filling_spec):
        with pytest.raises(NotApplicable):
            periodic_vertex_witness(filling_spec.mg, filling_spec.f)


class TestBoundedChain:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chain_verifies(self, bdd_spec, k):
        chain = bounded_path_witness(bdd_spec, k)
        assert len(chain.vertices) == 5
        assert all(a["ok"] for a in chain.arrows)
        assert sum(1 for a in chain.arrows if a["move"] == "collapse") == 4

    def test_no_decomposition_rejected(self, filling_spec):
        with pytest.raises(InvalidInput):
            bounded_path_witness(filling_spec, 1)

    def test_contractible_component_rejected(self, bdd_spec):
        bad = ExampleSpec(
            bdd_spec.name, bdd_spec.mg, bdd_spec.maps, bdd_spec.expected,
            params=bdd_spec.params,
            decomposition={**bdd_spec.decomposition, "K2": frozenset()},
        )
        with pytest.raises(InvalidInput):
            bounded_path_witness(bad, 1)


class TestClassify:
    def test_filling_reducible(self, filling_spec):
        c = classify(filling_spec)
        assert c.verdict == "Loxodromic"
        assert c.witness_kind == "displacement-table"
        t = {int(k): v for k, v in c.witness["table"].items()}
        assert all(t[m] == t[0] - m for m in t)

    def test_bdd(self, bdd_spec):
        c = classify(bdd_spec)
        assert c.verdict == "BoundedOrbits"
        assert c.witness_kind == "length-4-chain"

    def test_joint_fill_without_chain_is_unknown(self, bdd_spec):
        # a joint Fills verdict is no certificate: without decomposition
        # data there is no chain to verify, so no BoundedOrbits
        spec = ExampleSpec(bdd_spec.name, bdd_spec.mg, bdd_spec.maps, None)
        c = classify(spec)
        assert (c.verdict, c.stage) == ("Unknown", "bounded_path_witness")
        assert c.witness_kind is None and c.witness == {}
        assert c.notes["joint_verdict"] == "Fills"

    def test_invariant_splitting_decides_before_filling_lamination(
            self, monkeypatch):
        # x1 -> x1 x2, x2 -> x1, x3 -> x3 fixes <x1, x2> * <x3>; even with
        # a lamination said to fill, the verified splitting decides
        monkeypatch.setattr(classify_mod, "lamination_fills",
                            lambda lam, cfg: FillsVerdict(FILLS))
        mg = marked_rose(3)
        f = rose_map(mg, {"x1": "x1 x2", "x2": "x1", "x3": "x3"})
        c = classify(ExampleSpec("order", mg, {"f": f}, None))
        assert c.verdict == "PeriodicVertex"
        assert c.notes["lamination_verdicts"] == [FILLS]
        h_slots = parse_marked_graph(c.witness["splitting"])[2]
        assert h_slots == frozenset({mg.graph.slot_of["x1"],
                                  mg.graph.slot_of["x2"]})

    def test_linear_shear(self):
        mg = marked_rose(2, ["x", "y"])
        spec = ExampleSpec("shear", mg,
                           {"f": rose_map(mg, {"x": "x y", "y": "y"})}, None)
        c = classify(spec)
        assert c.verdict == "PeriodicVertex"

    def test_stub_rejected(self):
        with pytest.raises(InvalidInput):
            classify(fixture("surface_example"))

    @pytest.mark.parametrize("power", [0, -2])
    @pytest.mark.parametrize("name", ["rank2_tr3", "rank2_tr0"])
    def test_power_below_one_rejected(self, name, power):
        # rank2_tr0 has an inner power, which classify finds first
        with pytest.raises(InvalidInput):
            classify(fixture(name), power=power)

    def test_linear_example_generator_is_periodic(self):
        spec = fixture("linear_example", i=1, j=1)
        gen_spec = ExampleSpec("theta", spec.mg,
                               {"f": spec.maps["theta"]}, None)
        c = classify(gen_spec)
        assert c.verdict == "PeriodicVertex"

    @pytest.mark.parametrize("cfg", [Config(iterate_cap=2),
                                     Config(lam_depth_cap=0)],
                             ids=["iterate_cap=2", "lam_depth_cap=0"])
    @pytest.mark.parametrize("name", ["rank2_tr3", "filling_reducible",
                                      "bdd_no_periodic", "rank2_tr2_shear"])
    def test_lamination_that_cannot_grow_is_unknown(self, name, cfg):
        # the invariant-splitting decider runs first, so the shear keeps
        # its PeriodicVertex; on the others a depth-0 lamination gets
        # Unknown from lamination_fills
        c = classify(fixture(name), cfg)
        if name == "rank2_tr2_shear":
            assert c.verdict == "PeriodicVertex"
        else:
            assert (c.verdict, c.stage) == ("Unknown", "lamination_fills")


class TestLoxodromicBranch:
    # loxodromic rank-2 maps whose sample groups give no two defined phases
    @pytest.mark.parametrize("bm", [("b", "Abb"), ("B", "abb"), ("Baa", "a")])
    def test_estimate_m_failure_is_unknown(self, bm):
        mg = marked_rose(2)
        spec = ExampleSpec("tail", mg, {"f": realize_rose_endo(mg, bm)}, None)
        c = classify(spec)
        assert c.verdict == "Unknown"
        assert c.stage == "estimate_M"

    def test_power_two(self):
        c = classify(fixture("rank2_tr3"), power=2)
        assert c.verdict == "Loxodromic"
        assert c.power == 2

    def test_certificate_not_serialized(self):
        c = classify(fixture("rank2_tr3"))
        assert c.verdict == "Loxodromic"
        assert c._certificate.ctx.m_hat == c.witness["m_hat"]
        assert "_certificate" not in json.dumps(c.to_json())


class TestFixtureCatalog:
    def test_names_listed(self):
        names = fixture_names()
        for expected in ("filling_reducible", "bdd_no_periodic",
                         "linear_example", "divergence", "surface_example",
                         "rank2_tr3"):
            assert expected in names

    def test_unknown_rejected(self):
        with pytest.raises(InvalidInput):
            fixture("no_such_example")

    def test_filling_reducible_strata(self, filling_spec):
        assert filling_spec.params["m"] == 3
        assert filling_spec.expected == "Loxodromic"

    def test_bad_sigma_rejected(self):
        with pytest.raises(FixtureInvalid):
            fixture("filling_reducible", sigma="X")  # does not fill G1

    def test_sigma_outside_rose_rejected(self):
        with pytest.raises(FixtureInvalid):
            fixture("filling_reducible", sigma="A A")

    def test_linear_example_commutes(self):
        spec = fixture("linear_example", i=1, j=0)
        th10 = spec.maps["theta_10"]
        th01 = spec.maps["theta_01"]
        assert compose(th10, th01).edge_images == \
            compose(th01, th10).edge_images

    def test_bdd_decomposition_keys(self, bdd_spec):
        assert set(bdd_spec.decomposition) == {"K1", "K2", "J2", "J3"}


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "freesplit.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          env=env)


class TestCLI:
    def test_fixtures_list(self):
        res = run_cli("fixtures")
        assert res.returncode == 0
        assert "filling_reducible" in res.stdout

    @pytest.mark.parametrize("argv", [("fixtures",), ("fixtures", "--json"),
                                      ("classify", "--fixture", "rank2_tr3")])
    def test_closed_stdout_exits_quietly(self, argv):
        # the reader is gone before the first write, as after `| head -3`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run([sys.executable, "-m", "freesplit.cli", *argv],
                                 stdout=write_end, stderr=subprocess.PIPE,
                                 text=True, timeout=300)
        finally:
            os.close(write_end)
        assert res.returncode == 0
        assert res.stderr == ""

    def test_classify_json(self):
        res = run_cli("classify", "--fixture", "rank2_tr2_shear", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["schema"] == "freesplit-report/1"
        assert payload["verdict"] == "PeriodicVertex"

    def test_unknown_fixture_exit_code(self):
        res = run_cli("classify", "--fixture", "nope")
        assert res.returncode == 2

    @pytest.mark.parametrize("flag", [("--horizon", "2"), ("--horizon", "0"),
                                      ("--seg-len", "0")])
    def test_invalid_neighbourhood_exit_code(self, flag, capsys):
        argv = ["classify", "--fixture", "filling_reducible", *flag]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_whitehead_budget_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("FREESPLIT_WHITEHEAD_MAX_LETTERS", "0")
        assert cli.main(["classify", "--fixture", "rank2_tr3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Whitehead letter budget" in err

    def test_fixture_fills_check_names_its_reason(self, monkeypatch, capsys):
        # a budget below the base word's length leaves its verdict Unknown
        monkeypatch.setenv("FREESPLIT_WHITEHEAD_MAX_LETTERS", "3")
        assert cli.main(["classify", "--fixture", "filling_reducible"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: base word does not fill its invariant "
                       "subgraph: Unknown (class set exceeds letter budget)\n")

    @pytest.mark.parametrize("command", ["classify", "report"])
    @pytest.mark.parametrize("power", ["0", "-2"])
    def test_invalid_power_exit_code(self, command, power, capsys):
        argv = [command, "--fixture", "rank2_tr3", "--power", power]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_distance_command(self):
        res = run_cli("distance", "--fixture", "bdd_no_periodic", "--k", "1",
                      "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["results"]["bound"] <= 4

    def test_fills_command(self):
        res = run_cli("fills", "--fixture", "filling_reducible",
                      "--classes", "X Y X' Y'", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] == "ProperFactor"

    def test_leaf_command(self):
        res = run_cli("leaf", "--fixture", "filling_reducible", "--depth", "2",
                      "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["results"]["seed"] == "A"

    @pytest.mark.parametrize("stratum", ["1", "7", "-1"])
    def test_leaf_stratum_out_of_range(self, stratum, capsys):
        # filling_reducible has exactly one exponential stratum
        argv = ["leaf", "--fixture", "filling_reducible", "--stratum", stratum]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("depth", ["-1", "-3"])
    def test_leaf_negative_depth(self, depth, capsys):
        argv = ["leaf", "--fixture", "filling_reducible", "--depth", depth]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_w_command(self):
        res = run_cli("w", "--fixture", "filling_reducible", "--word", "A",
                      "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["results"]["status"] == "Defined"

    def test_out_dir(self, tmp_path):
        res = run_cli("classify", "--fixture", "rank2_tr0", "--out",
                      str(tmp_path), "--json")
        assert res.returncode == 0
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["verdict"] == "PeriodicVertex"

    def test_golden_rank2_classify(self):
        res = run_cli("classify", "--fixture", "rank2_tr3", "--json")
        assert res.returncode == 0
        with open(os.path.join(GOLDEN, "rank2_tr3_classify.json")) as fh:
            assert json.loads(res.stdout) == json.load(fh)

    def test_report_command(self, capsys):
        assert cli.main(["report", "--fixture", "rank2_tr3", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        witness = results["classification"]["witness"]
        assert results["m_hat"] == witness["m_hat"]
        assert results["displacement"]["table"] == witness["table"]

    @pytest.mark.parametrize("name", ["bdd_no_periodic", "filling_reducible"])
    def test_report_independent_of_hash_seed(self, name):
        # set or hash order must not leak into the output
        outs = []
        for seed in ("0", "1"):
            res = run_cli("report", "--fixture", name, "--json",
                          env={**os.environ, "PYTHONHASHSEED": seed})
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] and outs[0] == outs[1]

    def test_golden_fixture_list(self):
        res = run_cli("fixtures", "--json")
        with open(os.path.join(GOLDEN, "fixtures_list.json")) as fh:
            assert json.loads(res.stdout) == json.load(fh)


class TestSerializationCLIRoundTrip:
    def test_input_file_classify(self, tmp_path, filling_spec):
        path = tmp_path / "map.txt"
        path.write_text(print_marked_graph(filling_spec.mg, filling_spec.f),
                        encoding="utf-8")
        res = run_cli("classify", "--input", str(path))
        assert res.returncode == 0
        assert "Loxodromic" in res.stdout

    def test_input_not_homotopy_equivalence_rejected(self, tmp_path, capsys):
        # x1 -> x1 x2 x1 x2, x2 -> x2 x1: the images generate a proper subgroup
        mg = marked_rose(2)
        x, y = FWD[0], FWD[1]
        endo = realize_rose_endo(mg, (x + y + x + y, y + x))
        path = tmp_path / "map.txt"
        path.write_text(print_marked_graph(mg, endo), encoding="utf-8")
        assert cli.main(["classify", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "homotopy equivalence" in err

    def test_input_file_text_format(self, tmp_path, capsys):
        path = tmp_path / "map.txt"
        path.write_text(ROSE2_SHEAR, encoding="utf-8")
        assert cli.main(["classify", "--input", str(path)]) == 0
        assert "PeriodicVertex" in capsys.readouterr().out

    @pytest.mark.parametrize("command,flag", [("fills", "--classes"),
                                              ("w", "--word")])
    def test_open_path_rejected_as_class(self, tmp_path, capsys, command,
                                         flag):
        path = tmp_path / "theta.txt"
        path.write_text(THETA, encoding="utf-8")
        assert cli.main([command, "--input", str(path), flag, "b"]) == 2
        assert capsys.readouterr().err == \
            "error: edge path 'b' is not closed\n"

    def test_closed_path_on_theta_graph(self, tmp_path, capsys):
        path = tmp_path / "theta.txt"
        path.write_text(THETA, encoding="utf-8")
        argv = ["fills", "--input", str(path), "--classes", "a b'"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "fills: ProperFactor\n"

    @pytest.mark.parametrize("text,config", [
        (ROSE2_SHEAR.replace("x2 x2\nMAP", "x3 x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x2 x2\nMAP", "xq x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x1 x1\nx2 x2\nMAP", "x0 x1\nx2 x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x1 x1\nx2 x2\nMAP", "x2 x1\nx2 x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x1 x1\nx2 x2\n", ""), None),
        (ROSE2_SHEAR + "c x1\n", None),
        (ROSE2_SHEAR + "x1 x1\n", None),
        (ROSE2_SHEAR + "H\nc\n", None),
        (None, None),
        (ROSE2_SHEAR, "missing.cfg"),
    ], ids=["marking_x3", "marking_xq", "marking_x0", "marking_twice",
            "marking_empty", "map_unknown_edge", "map_row_twice", "h_unknown_edge",
            "missing_input", "missing_config"])
    def test_malformed_input_rejected(self, tmp_path, capsys, text, config):
        path = tmp_path / "map.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = ["classify", "--input", str(path)]
        if config:
            argv += ["--config", str(tmp_path / config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
