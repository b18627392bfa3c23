"""Command-line interface: reports, exit codes, determinism."""
import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import pytest

from _generators import (
    accepted_document,
    bridge_graph,
    build_graph,
    seeded,
    two_path_graph,
)
from qnet import (
    GridSpec,
    GridStrategy,
    Leaf,
    OperationCosts,
    Purify,
    RouteRequest,
    Swap,
    evaluate_strategy,
    grid_cost,
    reduce_to_fixpoint,
    serialize_graph,
    serialize_strategy,
)
from qnet import cli


def run_cli(args, env=None, timeout=120):
    full_env = os.environ.copy()
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qnet", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def two_path_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "two_path.json"
    path.write_bytes(serialize_graph(two_path_graph()))
    return str(path)


@pytest.fixture(scope="module")
def chained_bridges_doc(tmp_path_factory):
    edges = []
    left = "A"
    for k in range(3):
        right = "B" if k == 2 else f"j{k}"
        edges += [
            (f"b{k}e1", left, f"u{k}", 0.95, 0.95),
            (f"b{k}e2", f"u{k}", right, 0.95, 0.95),
            (f"b{k}e3", left, f"v{k}", 0.95, 0.95),
            (f"b{k}e4", f"v{k}", right, 0.95, 0.95),
            (f"b{k}e5", f"u{k}", f"v{k}", 0.95, 0.95),
        ]
        left = right
    path = tmp_path_factory.mktemp("graphs") / "chained.json"
    path.write_bytes(serialize_graph(build_graph(edges)))
    return str(path)


def test_reduce_report(two_path_doc):
    proc = run_cli(["reduce", two_path_doc])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "reduce"
    assert doc["steps"] == 3
    assert "trace" not in doc
    (channel,) = doc["channels"]
    assert channel["id"] == "r2"
    assert channel["fidelity"] == 0.9540295119182747
    assert channel["strategy"]["op"] == "purify"
    assert doc["terminal"]["version"] == 1


def test_reduce_trace_flag(two_path_doc):
    proc = run_cli(["reduce", two_path_doc, "--trace"])
    assert proc.returncode == 0
    trace = json.loads(proc.stdout)["trace"]
    assert [s["kind"] for s in trace] == ["series", "series", "parallel"]
    assert trace[0]["consumed"] == ["c1", "c2"]
    assert trace[0]["eliminated"] == "m1"
    assert trace[2]["produced"] == "r2"


def test_reduce_reads_back_its_terminal(two_path_doc, tmp_path):
    first = json.loads(run_cli(["reduce", two_path_doc]).stdout)
    assert [c["id"] for c in first["channels"]] == ["r2"]
    terminal = tmp_path / "terminal.json"
    terminal.write_text(json.dumps(first["terminal"]))
    proc = run_cli(["reduce", str(terminal)])
    assert proc.returncode == 0, proc.stdout
    again = json.loads(proc.stdout)
    assert again["steps"] == 0
    assert again["terminal"] == first["terminal"]


def test_synthetic_id_past_64_characters_fails_cleanly(tmp_path):
    # the next synthetic id after r99...9 (63 nines) is r10...0 (63 zeros),
    # 65 characters, which no graph may hold
    top = "r" + "9" * 63
    g = build_graph([(top, "A", "m", 0.9, 0.9), ("c2", "m", "B", 0.9, 0.9)])
    path = tmp_path / "long.json"
    path.write_bytes(serialize_graph(g))
    proc = run_cli(["reduce", str(path)])
    assert proc.returncode == 1
    produced = "r1" + "0" * 63
    assert json.loads(proc.stdout)["message"] == (
        f"channel id {produced!r} must be 1-64 non-whitespace characters"
    )
    assert "Traceback" not in proc.stderr


def test_missing_graph_file_fails_cleanly():
    proc = run_cli(["reduce", "/no/such/file.json"])
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["code"] == 1
    assert "cannot read" in doc["message"]
    assert isinstance(doc["context"], dict)
    assert proc.stderr.startswith("error:")


def test_invalid_document_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    proc = run_cli(["reduce", str(bad)])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["code"] == 1


def test_oversized_integer_cost_fails_cleanly(tmp_path):
    doc = json.loads(serialize_graph(two_path_graph()))
    doc["edges"][0]["fidelity"] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli(["reduce", str(bad)])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["message"] == (
        "field 'fidelity' in edges[0] is too large for a float"
    )


def test_deeply_nested_documents_fail_cleanly(tmp_path, two_path_doc):
    graph = tmp_path / "deep_graph.json"
    graph.write_text(
        '{"version": 1, "edges": [], "nodes": ' + "[" * 100000 + "]" * 100000 + "}"
    )
    strategy = tmp_path / "deep_strategy.json"
    strategy.write_text(
        '{"op": "swap", "left": ' * 3000
        + '{"op": "leaf", "channel": "c1"}'
        + ', "right": {"op": "leaf", "channel": "c2"}}' * 3000
    )
    for args in (
        ["reduce", str(graph)],
        ["simulate", two_path_doc, "--samples", "10", "--strategy", str(strategy)],
    ):
        proc = run_cli(args)
        assert proc.returncode == 1
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["code"] == 1


def _ladder_graph(rungs):
    """A-B chain of rungs hops, each hop two parallel channels."""
    hops = ["A"] + [f"m{i}" for i in range(1, rungs)] + ["B"]
    edges = []
    for i in range(rungs):
        edges.append((f"c{2 * i}", hops[i], hops[i + 1], 0.99, 0.999))
        edges.append((f"c{2 * i + 1}", hops[i], hops[i + 1], 0.98, 0.998))
    return build_graph(edges)


def test_commands_handle_a_3000_rung_ladder(tmp_path):
    g = _ladder_graph(3000)
    path = tmp_path / "ladder.json"
    path.write_bytes(serialize_graph(g))
    (tree,) = reduce_to_fixpoint(g).strategies.values()
    want = evaluate_strategy(tree, g)
    # The reported strategy nests deeper than json.loads allows at the
    # default recursion limit: find it as text, then parse the rest.
    strategy = serialize_strategy(tree)
    route_args = ["--source", "A", "--target", "B", "--min-success", "1e-60"]
    for args, cost_of in (
        (["reduce", str(path), "--trace"], lambda doc: doc["channels"][0]),
        (["route", str(path), *route_args], lambda doc: doc["cost"]),
        (["simulate", str(path), "--samples", "200"], lambda doc: doc["analytic"]),
    ):
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.count("\n") == 1
        assert proc.stdout.count(strategy) == 1
        doc = json.loads(proc.stdout.replace(strategy, "null"))
        cost = cost_of(doc)
        assert (cost["fidelity"], cost["success"]) == (want.fidelity, want.success)


@pytest.fixture(scope="module")
def ladder_doc(tmp_path_factory):
    """The 2,000-channel ladder's document."""
    path = tmp_path_factory.mktemp("graphs") / "ladder.json"
    path.write_bytes(serialize_graph(_ladder_graph(1000)))
    return str(path)


def _run_in_process(argv):
    """(exit code, stdout) of cli.run(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _subcommands(doc, large):
    route = ["--source", "A", "--target", "B", "--min-success", "1e-60"]
    side = ["40", "50"] if large else ["2", "2"]
    return [
        ["reduce", doc, "--trace"],
        ["route", doc, *route],
        ["simulate", doc, "--samples", "200"],
        ["grid", "--breadth", side[0], "--depth", side[1],
         "--fidelity", "0.9", "--success", "0.9"],
    ]


def _contract_commands(rng, doc, source, target):
    """reduce --trace, route and both simulate forms on one document."""
    floor = str(rng.choice((1.0, 0.5, 1e-300, 5e-324, rng.uniform(1e-6, 1.0))))
    # "--source=<id>", as an id may begin with "-"
    plan = [f"--source={source}", f"--target={target}", "--min-success", floor]
    if rng.random() < 0.25:
        plan += ["--max-bruteforce-edges", "1"]
    sample = ["--samples", "64", "--seed", str(rng.randrange(2**128))]
    return [
        ["reduce", doc, "--trace"],
        ["route", doc, *plan],
        ["simulate", doc, *sample],
        ["simulate", doc, *sample, *plan],
    ]


def test_accepted_documents_get_one_json_answer(tmp_path):
    """Every command on a document of the accepted domain writes one JSON
    document and no traceback: its report, or an error document whose code
    is the exit code; together the documents reach every exit code."""
    rng = seeded(10)
    reached = set()
    for i in range(200):
        document, source, target = accepted_document(rng)
        path = tmp_path / f"doc{i}.json"
        path.write_bytes(document)
        for argv in _contract_commands(rng, str(path), source, target):
            code, out = _run_in_process(argv)
            assert out.endswith("\n") and out.count("\n") == 1, argv
            report = json.loads(out)
            if "code" in report:
                assert report["code"] == code != 0, argv
            else:
                assert report["command"] == argv[0] and code in (0, 2), argv
            reached.add(code)
    assert reached == {0, 1, 2, 3}


def test_commands_leave_little_cyclic_garbage(two_path_doc, ladder_doc):
    """cli.main switches the cyclic collector off for the process, which
    holds only while a command leaves a small, fixed amount of cyclic
    garbage (the argument parser's) whatever the size of its document:
    here the README document and the 2,000-channel ladder, or a 2 x 2 and
    a 40 x 50 grid.  cli.run itself leaves the collector as it found it."""
    enabled = gc.isenabled()
    try:
        for small, large in zip(
            _subcommands(two_path_doc, False), _subcommands(ladder_doc, True)
        ):
            found = []
            for argv in (small, large):
                gc.collect()
                gc.disable()
                code, _ = _run_in_process(argv)
                assert code == 0 and not gc.isenabled()
                found.append(gc.collect())
                gc.enable()
                assert _run_in_process(argv)[0] == 0 and gc.isenabled()
            assert found[0] == found[1] and found[0] < 1000, (small[0], found)
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


def test_fresh_process_prints_what_run_prints(ladder_doc):
    """python -m qnet, which runs without the cyclic collector, writes the
    same report as cli.run."""
    argv = ["reduce", ladder_doc, "--trace"]
    proc = subprocess.run(
        [sys.executable, "-m", "qnet", *argv], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    code, text = _run_in_process(argv)
    assert (proc.returncode, proc.stdout) == (code, text.encode("ascii"))


def _loaded_after(code, modules, *flags):
    """Which of modules a fresh interpreter, started with flags, has loaded
    after running code."""
    probe = f"{code}; import sys; print(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_planning_does_not_import_numpy(two_path_doc, tmp_path):
    modules = ("numpy", "dataclasses", "inspect", "concurrent.futures")
    assert _loaded_after("import qnet, qnet.cli", modules) == []
    assert _loaded_after("import qnet.montecarlo", modules) == []
    assert _loaded_after("import qnet; dir(qnet)", modules) == []
    # sampling the README document, by its default strategy and by --strategy
    strategy = tmp_path / "strategy.json"
    strategy.write_text(
        serialize_strategy(
            Purify(Swap(Leaf("c1"), Leaf("c2")), Swap(Leaf("c3"), Leaf("c4")))
        )
    )
    for extra in ([], ["--strategy", str(strategy)]):
        argv = ["simulate", two_path_doc, "--samples", "20000", "--seed", "3", *extra]
        code = (
            "import io, sys, qnet.cli; out, sys.stdout = sys.stdout, io.StringIO(); "
            f"code = qnet.cli.run({argv!r}); sys.stdout = out; assert code == 0"
        )
        assert _loaded_after(code, modules) == []


def test_import_loads_no_typing():
    """-S skips site, whose start-up hooks may import typing themselves."""
    for code in ("import qnet.cli", "import qnet, qnet.montecarlo"):
        assert _loaded_after(code, ("typing",), "-S") == []


def test_no_thread_count_imports_a_pool(two_path_doc):
    """estimate runs every chunk in the calling thread: neither one chunk
    nor four load a thread pool."""
    code = (
        "from qnet import Leaf, estimate, parse_graph; "
        f"g = parse_graph(open({two_path_doc!r}, 'rb').read()); "
        "estimate(Leaf('c1'), g, {samples}, seed=0)"
    )
    for samples in (20000, 200001):
        assert _loaded_after(code.format(samples=samples), ("concurrent.futures",)) == []


_RUN_ALL = """
import io, json, sys
if {block}:
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import qnet, qnet.cli
assert set(qnet.__all__) <= set(dir(qnet))
outputs = []
for argv in {commands!r}:
    out, sys.stdout = sys.stdout, io.StringIO()
    code = qnet.cli.run(argv)
    text, sys.stdout = sys.stdout.getvalue(), out
    outputs.append((argv[0], code, text))
print(json.dumps(outputs))
"""


def test_commands_run_with_numpy_blocked(two_path_doc):
    """qnet has no runtime dependency: with numpy unimportable, import qnet,
    dir(qnet) and every subcommand work and print the same bytes."""
    route = ["--source", "A", "--target", "B", "--min-success", "0.4"]
    commands = [
        ["reduce", two_path_doc, "--trace"],
        ["route", two_path_doc, *route],
        ["simulate", two_path_doc, "--samples", "20000", "--seed", "3"],
        ["simulate", two_path_doc, "--samples", "20000", "--seed", "3", *route],
        ["grid", "--breadth", "3", "--depth", "4", "--fidelity", "0.9", "--success", "0.8"],
    ]
    outputs = {}
    for block in (True, False):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL.format(block=block, commands=commands)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[block] = json.loads(proc.stdout)
    assert [(cmd, code) for cmd, code, _ in outputs[True]] == [
        ("reduce", 0), ("route", 0), ("simulate", 0), ("simulate", 0), ("grid", 0)
    ]
    assert outputs[True] == outputs[False]


def test_dir_lists_lazy_names_without_importing_numpy():
    code = (
        "import qnet; names = dir(qnet); "
        "assert set(qnet.__all__) <= set(names), set(qnet.__all__) - set(names)"
    )
    assert _loaded_after(code, ("numpy",)) == []


def test_route_flag_defaults_match_route_request():
    from qnet.cli import _build_parser

    request = RouteRequest("A", "B", 0.5)
    parser = _build_parser()
    for argv in (
        ["route", "g.json", "--source", "A", "--target", "B", "--min-success", "0.5"],
        ["simulate", "g.json", "--samples", "1"],
    ):
        args = parser.parse_args(argv)
        assert args.max_bruteforce_edges == request.max_bruteforce_edges


def test_route_report(two_path_doc):
    proc = run_cli(
        ["route", two_path_doc, "--source", "A", "--target", "B", "--min-success", "0.4"]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "route"
    assert doc["search"] == "FullyReduced"
    assert doc["cost"]["fidelity"] == 0.9540295119182747
    assert doc["cost"]["success"] == 0.46241928000000015
    assert "paths_harvested" not in doc
    assert set(doc["diagnostics"]) == {"candidates_evaluated", "reduction_steps"}
    assert doc["strategy"]["op"] == "purify"
    assert len(doc["subgraph"]["edges"]) == 4
    assert doc["diagnostics"]["reduction_steps"] == 3


def test_route_infeasible_exit_code(two_path_doc):
    proc = run_cli(
        ["route", two_path_doc, "--source", "A", "--target", "B", "--min-success", "0.9"]
    )
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["search"] == "Infeasible"
    assert doc["cost"] is None
    assert "no feasible route" in proc.stderr


def test_route_bound_exceeded_exit_code(chained_bridges_doc):
    proc = run_cli(
        [
            "route",
            chained_bridges_doc,
            "--source",
            "A",
            "--target",
            "B",
            "--min-success",
            "0.000001",
        ]
    )
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["code"] == 3
    assert "max_bruteforce_edges" in doc["message"]


def test_usage_errors_exit_one(two_path_doc):
    proc = run_cli(["route", two_path_doc, "--source", "A", "--target", "B"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["code"] == 1
    proc = run_cli(["grid", "--breadth", "2"])
    assert proc.returncode == 1
    proc = run_cli(["unknown-command"])
    assert proc.returncode == 1


def test_removed_max_paths_option_is_a_usage_error(two_path_doc):
    route = ["route", two_path_doc, "--source", "A", "--target", "B", "--min-success", "0.4"]
    simulate = ["simulate", two_path_doc, "--samples", "10", *route[2:]]
    for argv in (route, simulate):
        proc = run_cli([*argv, "--max-paths", "3"])
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["code"] == 1
        assert doc["message"] == "unrecognized arguments: --max-paths 3"
        assert "Traceback" not in proc.stderr


def test_bad_request_values_exit_one(two_path_doc, tmp_path):
    proc = run_cli(
        ["route", two_path_doc, "--source", "A", "--target", "B", "--min-success", "1.5"]
    )
    assert proc.returncode == 1
    proc = run_cli(
        ["route", two_path_doc, "--source", "A", "--target", "m1", "--min-success", "0.4"]
    )
    assert proc.returncode == 1
    # 70 parallel channels collapse below the floor, leaving a 70-channel
    # kernel; the request is refused before a 2**70-entry table is built.
    path = tmp_path / "parallel.json"
    path.write_bytes(
        serialize_graph(build_graph([(f"c{i}", "A", "B", 0.9, 0.9) for i in range(70)]))
    )
    args = ["route", str(path), "--source", "A", "--target", "B", "--min-success", "0.5"]
    proc = run_cli([*args, "--max-bruteforce-edges", "100"])
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["code"] == 1
    assert doc["message"] == "max_bruteforce_edges must be <= 20"
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_route_search_below_half_fidelity_exits_one(tmp_path):
    path = tmp_path / "bridge.json"
    path.write_bytes(serialize_graph(bridge_graph(bridge_fidelity=0.3)))
    proc = run_cli(
        ["route", str(path), "--source", "A", "--target", "B", "--min-success", "0.3"]
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["code"] == 1
    assert "e5" in doc["message"]
    assert proc.stderr.startswith("error: ")


def test_simulate_route_driven(two_path_doc):
    proc = run_cli(
        [
            "simulate",
            two_path_doc,
            "--samples",
            "70001",
            "--seed",
            "5",
            "--source",
            "A",
            "--target",
            "B",
            "--min-success",
            "0.4",
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "simulate"
    assert doc["analytic"]["fidelity"] == 0.9540295119182747
    est = doc["estimate"]
    assert est["samples"] == 70001 and est["seed"] == 5
    assert abs(est["fidelity_hat"] - 0.9540295119182747) <= 4 * est["std_error_fidelity"]
    assert doc["strategy"]["op"] == "purify"


@pytest.mark.parametrize("seed", ["-1", str(2**128), "0", str(2**128 - 1)])
def test_simulate_seed_domain(two_path_doc, seed):
    """Seeds are the integers in [0, 2**128); qnet refuses the others itself."""
    proc = run_cli(["simulate", two_path_doc, "--samples", "100", "--seed", seed])
    doc = json.loads(proc.stdout)
    if 0 <= int(seed) < 2**128:
        assert proc.returncode == 0
        assert doc["estimate"]["seed"] == int(seed)
    else:
        assert proc.returncode == 1
        assert doc["message"] == f"seed {seed} outside [0, 2**128)"


def test_simulate_refuses_samples_past_the_bound(two_path_doc):
    """10**20 samples would run for millennia; the refusal comes at once."""
    proc = run_cli(["simulate", two_path_doc, "--samples", str(10**20)], timeout=60)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["message"] == "samples must be <= 2**40 (1,099,511,627,776)"


def test_simulate_default_strategy_reduces_graph(two_path_doc):
    proc = run_cli(["simulate", two_path_doc, "--samples", "1000"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["strategy"]["op"] == "purify"


def test_simulate_default_strategy_needs_reducible_graph(tmp_path):
    path = tmp_path / "bridge.json"
    path.write_bytes(serialize_graph(bridge_graph()))
    proc = run_cli(["simulate", str(path), "--samples", "1000"])
    assert proc.returncode == 1
    assert "--strategy" in json.loads(proc.stdout)["message"]


def test_simulate_strategy_file(two_path_doc, tmp_path):
    tree = {
        "op": "purify",
        "left": {
            "op": "swap",
            "left": {"op": "leaf", "channel": "c1"},
            "right": {"op": "leaf", "channel": "c2"},
        },
        "right": {
            "op": "swap",
            "left": {"op": "leaf", "channel": "c3"},
            "right": {"op": "leaf", "channel": "c4"},
        },
    }
    spath = tmp_path / "strategy.json"
    spath.write_text(json.dumps(tree))
    proc = run_cli(
        ["simulate", two_path_doc, "--samples", "1000", "--strategy", str(spath)]
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["strategy"] == tree


def test_simulate_strategy_reads_long_integers_as_graphs_do(two_path_doc, tmp_path):
    """A 5,000-digit integer is past int()'s default digit limit; the leaf is
    refused in qnet's words, as parse_graph refuses such a field."""
    spath = tmp_path / "strategy.json"
    spath.write_text('{"op": "leaf", "channel": ' + "9" * 5000 + "}")
    proc = run_cli(
        ["simulate", two_path_doc, "--samples", "10", "--strategy", str(spath)]
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["message"] == (
        "leaf node needs exactly a string 'channel' field"
    )


def test_simulate_refuses_a_singular_strategy_before_sampling(
    tmp_path, monkeypatch, capsys
):
    from qnet import cli

    g = build_graph([("c1", "A", "B", 1.0, 1.0), ("c2", "A", "B", 0.0, 1.0)])
    gpath = tmp_path / "g.json"
    gpath.write_bytes(serialize_graph(g))
    spath = tmp_path / "s.json"
    spath.write_text(
        json.dumps(
            {
                "op": "purify",
                "left": {"op": "leaf", "channel": "c1"},
                "right": {"op": "leaf", "channel": "c2"},
            }
        )
    )

    def never(*args, **kwargs):
        raise AssertionError("sampled a strategy the algebra refuses")

    monkeypatch.setattr(cli, "estimate", never)
    argv = ["simulate", str(gpath), "--samples", "30000000", "--strategy", str(spath)]
    assert cli.run(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["message"] == "singular purification input (1.0, 0.0)"


def test_simulate_flag_conflicts(two_path_doc, tmp_path):
    spath = tmp_path / "s.json"
    spath.write_text('{"op": "leaf", "channel": "c1"}')
    cases = [
        (["--strategy", str(spath), "--source", "A"],
         "--strategy and route flags are mutually exclusive"),
        (["--source", "A"],
         "route-driven simulation needs --source, --target and --min-success together"),
        (["--samples", "0"], "samples must be >= 1"),
    ]
    for flags, message in cases:
        proc = run_cli(["simulate", two_path_doc, "--samples", "10", *flags])
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["message"] == message
        assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--samples", str(10**20)], "samples must be <= 2**40 (1,099,511,627,776)"),
        (["--samples", "10", "--seed", str(2**128)],
         f"seed {2**128} outside [0, 2**128)"),
    ],
    ids=["samples", "seed"],
)
def test_simulate_checks_samples_and_seed_before_planning(
    two_path_doc, monkeypatch, capsys, flags, message
):
    """A sample count or seed out of range is refused before the document
    is read, so a large document costs nothing to refuse."""

    def never(*args, **kwargs):
        raise AssertionError("planned before checking --samples and --seed")

    monkeypatch.setattr(cli, "parse_graph", never)
    monkeypatch.setattr(cli, "reduce_to_fixpoint", never)
    plan = ["--source", "A", "--target", "B", "--min-success", "0.1"]
    for argv in (
        ["simulate", two_path_doc, *flags],
        ["simulate", "missing.json", *flags, *plan],
    ):
        assert cli.run(argv) == 1
        assert json.loads(capsys.readouterr().out)["message"] == message


def test_ids_that_begin_with_a_dash_need_the_equals_form(tmp_path):
    """argparse reads "-a" after --source as an option, not as its value."""
    path = tmp_path / "dash.json"
    path.write_bytes(serialize_graph(build_graph(
        [("c1", "-a", "B", 0.9, 0.9)], endpoints=("-a", "B")
    )))
    plan = ["--target", "B", "--min-success", "0.5"]
    code, out = _run_in_process(["route", str(path), "--source", "-a", *plan])
    assert code == 1
    assert json.loads(out)["message"] == "argument --source: expected one argument"
    code, out = _run_in_process(["route", str(path), "--source=-a", *plan])
    assert code == 0
    assert json.loads(out)["search"] == "FullyReduced"


def test_simulate_infeasible_route_flags(two_path_doc):
    proc = run_cli(
        [
            "simulate",
            two_path_doc,
            "--samples",
            "10",
            "--source",
            "A",
            "--target",
            "B",
            "--min-success",
            "0.9",
        ]
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["code"] == 2


def test_thread_env_does_not_change_report(two_path_doc, monkeypatch):
    monkeypatch.delenv("QNET_THREADS", raising=False)
    args = ["simulate", two_path_doc, "--samples", "70001", "--seed", "3"]
    unset = run_cli(args)
    assert unset.returncode == 0, unset.stderr
    for value in ("many", "0", "2"):
        proc = run_cli(args, env={"QNET_THREADS": value})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == unset.stdout


def test_reports_are_byte_stable(two_path_doc):
    route_args = [
        "route",
        two_path_doc,
        "--source",
        "A",
        "--target",
        "B",
        "--min-success",
        "0.4",
    ]
    assert run_cli(route_args).stdout == run_cli(route_args).stdout
    assert (
        run_cli(["reduce", two_path_doc, "--trace"]).stdout
        == run_cli(["reduce", two_path_doc, "--trace"]).stdout
    )


def test_grid_matches_library_exactly():
    proc = run_cli(
        [
            "grid",
            "--breadth",
            "2",
            "--depth",
            "3",
            "--fidelity",
            "0.9",
            "--success",
            "0.9",
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    want = grid_cost(GridSpec(2, 3, 0.9, 0.9), OperationCosts())
    assert doc["cost"]["fidelity"] == want.fidelity
    assert doc["cost"]["success"] == want.success
    assert doc["op_costs"]["physical_acceptance"] is True


def test_grid_flags_round_trip():
    proc = run_cli(
        [
            "grid",
            "--breadth",
            "3",
            "--depth",
            "2",
            "--fidelity",
            "0.8",
            "--success",
            "0.75",
            "--strategy",
            "swap-then-purify",
            "--swap-success",
            "0.95",
            "--no-physical-acceptance",
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["strategy"] == "swap-then-purify"
    assert doc["op_costs"]["physical_acceptance"] is False
    spec = GridSpec(3, 2, 0.8, 0.75, strategy=GridStrategy.SWAP_THEN_PURIFY)
    want = grid_cost(spec, OperationCosts(swap_success=0.95, physical_acceptance=False))
    assert doc["cost"]["success"] == want.success


def test_grid_rejects_bad_values():
    proc = run_cli(
        ["grid", "--breadth", "0", "--depth", "2", "--fidelity", "0.8", "--success", "0.9"]
    )
    assert proc.returncode == 1
    # a side of 2**63 would overflow the list of channel values
    for flag, other in (("--breadth", "--depth"), ("--depth", "--breadth")):
        proc = run_cli(
            ["grid", flag, str(2**63), other, "1", "--fidelity", "0.9", "--success", "0.9"]
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["code"] == 1
        assert doc["message"] == "grid breadth and depth must be <= 1000000"
        assert "Traceback" not in proc.stderr
    proc = run_cli(
        [
            "grid",
            "--breadth",
            "2",
            "--depth",
            "2",
            "--fidelity",
            "0.8",
            "--success",
            "0.9",
            "--strategy",
            "sideways",
        ]
    )
    assert proc.returncode == 1
