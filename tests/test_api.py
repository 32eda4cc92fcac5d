"""The public surface: exports resolve, no public function goes unused, and
README's library example and quoted CLI output hold."""

import ast
import re
import shlex
from pathlib import Path

import stabkit

SRC = Path(stabkit.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    for name in stabkit.__all__:
        assert hasattr(stabkit, name), name


def test_every_public_function_is_used_exported_or_documented():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    documented = set(re.findall(r"\w+", README.read_text()))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in referenced | set(stabkit.__all__) | documented
    ]
    assert unused == []


def test_readme_library_block_runs(monkeypatch, capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(README.parent)
    exec(block.group(1), {})
    assert capsys.readouterr().out


def test_readme_quoted_cli_output_is_verbatim(monkeypatch, run_cli):
    quoted = re.findall(
        r"```sh\nstabkit (analyze|synthesize|covering) ([^\n]*)\n```.*?\n```\n(.*?)```",
        README.read_text(), re.S)
    assert [command for command, _, _ in quoted] == ["analyze", "synthesize", "covering"]
    monkeypatch.chdir(README.parent)
    for command, args, output in quoted:
        code, out, _ = run_cli(command, *shlex.split(args))
        assert code == 0
        for line in output.splitlines():
            if not line.endswith("..."):  # a citation the README cuts short
                assert line in out.splitlines(), (command, line)
