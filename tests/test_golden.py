"""Byte-identity against the golden table: every output file of ``golden.py``'s trees.

The trees are built once, in process, and every test here reads them.
"""

import json

import pytest

import golden

HINT = (
    f"\nIf this change moves outputs on purpose, re-make the table with `{golden.REMAKE}`"
    " and list every entry that moved in CHANGES.md."
)


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, golden.build_trees(root)


def test_every_output_file_matches_the_golden_table(trees):
    _, hashes = trees
    table = golden.read_table()
    moved = [name for name in sorted(hashes.keys() & table.keys()) if hashes[name] != table[name]]
    assert not moved, f"{len(moved)} output files moved:\n  " + "\n  ".join(moved) + HINT


def test_golden_table_lists_exactly_the_built_files(trees):
    _, hashes = trees
    table = golden.read_table()
    problems = [f"{name}: built, but not in the table" for name in sorted(hashes.keys() - table.keys())]
    problems += [f"{name}: in the table, but not built" for name in sorted(table.keys() - hashes.keys())]
    assert not problems, "\n".join(problems) + HINT


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_every_json_output_is_valid_json(trees):
    # Python's json writes NaN and Infinity without complaint, but they are not JSON.
    root, hashes = trees
    for name in hashes:
        if name.endswith(".json"):
            json.loads((root / name).read_text(), parse_constant=_refuse)


def test_every_manifest_lists_the_other_files_of_its_tree(trees):
    root, hashes = trees
    by_tree: dict[str, dict[str, str]] = {}
    for name, digest in hashes.items():
        tree, file = name.split("/", 1)
        by_tree.setdefault(tree, {})[file] = digest
    # Every run and gen-trace writes a manifest; a report re-render does not.
    assert {p.parent.name for p in root.glob("*/manifest.json")} == {
        tree for tree in by_tree if not tree.endswith(".report")
    }
    for path in root.glob("*/manifest.json"):
        files = by_tree[path.parent.name]
        del files["manifest.json"]
        assert json.loads(path.read_text())["outputs"] == files, path.parent.name


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("workload", list(golden.WORKLOADS))
def test_trace_file_rerun_equals_the_generated_trace_run(trees, workload, fmt):
    # Only the manifest and the summary's echo of the config (its trace.file)
    # may tell a run on the written trace from the run that generated it.
    root, _ = trees
    generated, rerun = root / workload, root / f"{workload}.{fmt}"
    files = sorted(p.name for p in generated.iterdir())
    assert sorted(p.name for p in rerun.iterdir()) == files
    for file in files:
        if file == "manifest.json":
            continue
        want, got = (generated / file).read_bytes(), (rerun / file).read_bytes()
        if file in ("summary.json", "network.json"):
            want, got = json.loads(want), json.loads(got)
            assert got.pop("config")["trace"] == {"file": f"{workload}.trace/trace.{fmt}"}
            del want["config"]
        assert got == want, f"{rerun.name}/{file}"
