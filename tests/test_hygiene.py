"""Source hygiene with no linter installed: every name a package module
imports is used in that module, every public function, class and method
the package defines is referenced by code that runs it (the package, the
tools or the benchmark, not the tests alone), and each name has one
import path, the module that defines it: package ``__init__.py`` files
import nothing.  Start-up loads only what every command needs, which is
NumPy and no SciPy module: ``scipy.signal`` waits for the first scene
or STOI score."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from avse.data.manifest import ManifestEntry, write_manifest
from avse.data.synth import synth_scene
from avse.data.tensorfile import write_tensor
from avse.data.wavio import save_wav
from avse.model.config import tiny_config
from avse.model.params import init_parameters
from avse.training.checkpoint import Checkpoint, save_checkpoint

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "avse"
MODULES = sorted(PACKAGE.rglob("*.py"))
INITS = [p for p in MODULES if p.name == "__init__.py"]
# Where a reference keeps a package definition alive: code that runs it.
# A definition only tests call is test code, and lives in the tests.
SEARCHED = ("src", "tools", "perfbench")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b" bind the alias
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "os.sep\n"
        "d()\n"
    )
    assert unused_imports(source) == ["b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_inits_import_nothing():
    """A re-export would give a name a second import path and load every
    module behind it on first import of the package."""
    found = {
        str(path.relative_to(PACKAGE)): node.lineno
        for path in INITS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert INITS and found == {}


def loaded_in_fresh_interpreter(code: str, modules) -> tuple[str, list[str]]:
    """Run ``code`` in a new interpreter; returns (what it printed, the
    names of ``modules`` it loaded)."""
    probe = f"\nimport sys\nprint(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code + probe], capture_output=True, text=True,
                         check=True, env=env)
    *printed, loaded = out.stdout.strip().splitlines()
    return "\n".join(printed), ast.literal_eval(loaded)


def test_loss_loads_no_stoi_wav_or_scipy_signal():
    """The training loss reaches SI-SDR through its own module, not through
    the metrics package, so it does not load STOI and what STOI needs."""
    _, loaded = loaded_in_fresh_interpreter(
        "import avse.training.loss", ("scipy.signal", "avse.metrics.stoi", "avse.data.wavio")
    )
    assert loaded == []


def test_cli_and_loop_load_no_scipy():
    """scipy.signal takes most of a second to import and only scene
    synthesis and STOI call it, so they import it where they call it; the
    mask head's logistic is NumPy's, so nothing else loads SciPy.  Every
    SciPy module loads the ``scipy`` package first."""
    _, loaded = loaded_in_fresh_interpreter("import avse.cli, avse.training.loop", ("scipy",))
    assert loaded == []


def test_enhance_train_info_mix_and_gradcheck_commands_load_no_scipy(tmp_path):
    config = tiny_config()
    model = tmp_path / "m.avck"
    save_checkpoint(model, Checkpoint(config, init_parameters(config, 0, dtype=np.float32)))
    scene = synth_scene(0, 0.5, config)
    save_wav(tmp_path / "t.wav", scene.target, scene.sample_rate_hz)
    save_wav(tmp_path / "i.wav", scene.interferer, scene.sample_rate_hz)
    write_tensor(tmp_path / "f.avst", scene.frames.astype(np.float32))
    write_manifest(tmp_path / "manifest.jsonl",
                   [ManifestEntry("s", "t.wav", "i.wav", "f.avst", scene.snr_db)])
    (tmp_path / "tiny.json").write_text(config.to_json(), encoding="utf-8")
    commands = {
        "enhance": ["enhance", "--model", model, "--audio", tmp_path / "t.wav",
                    "--frames", tmp_path / "f.avst", "--out", tmp_path / "o.wav"],
        "train": ["train", "--data", tmp_path, "--config", tmp_path / "tiny.json",
                  "--epochs", "1", "--out", tmp_path / "trained.avck"],
        "info": ["info", "--config", tmp_path / "tiny.json"],
        "mix": ["mix", "--target", tmp_path / "t.wav", "--interferer", tmp_path / "i.wav",
                "--snr", "0", "--out", tmp_path / "mix.wav"],
        "gradcheck": ["gradcheck", "--seed", "0"],
    }
    for name, argv in commands.items():
        call = f"from avse import cli\nprint(cli.main({[str(a) for a in argv]!r}))"
        printed, loaded = loaded_in_fresh_interpreter(call, ("scipy",))
        assert (name, printed.splitlines()[-1], loaded) == (name, "0", [])
    outputs = ("o.wav", "trained.avck", "mix.wav")
    assert all((tmp_path / name).is_file() for name in outputs)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(nodes):
    return [n for n in nodes if isinstance(n, _DEFS) and not n.name.startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Identifiers ``source`` reads: names, attributes, imported names, and
    the dotted parts of string constants (bindings looked up by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def method_names(source: str) -> list[str]:
    """Public method names of the top-level classes of ``source``."""
    tree = ast.parse(source)
    return [m.name for c in tree.body if isinstance(c, ast.ClassDef) for m in _public(c.body)]


def unreferenced(source: str, read: list[set[str]], shared: set[str]) -> list[str]:
    """Public top-level functions and classes of ``source``, and public
    methods of those classes, that nothing reads; ``read`` holds the
    ``referenced_names`` of every other text.  A method whose name is in
    ``shared`` (defined by more than one class) counts as read only where
    its class is in view: in ``source`` or in a text that names the class,
    so another class's callers do not keep it alive."""
    own = referenced_names(source)
    anywhere = own.union(*read)
    missing = []
    for node in _public(ast.parse(source).body):
        if node.name not in anywhere:
            missing.append(f"{node.name} (line {node.lineno})")
        if isinstance(node, ast.ClassDef):
            in_view = own.union(*(names for names in read if node.name in names))
            missing += [
                f"{node.name}.{m.name} (line {m.lineno})"
                for m in _public(node.body)
                if m.name not in (in_view if m.name in shared else anywhere)
            ]
    return missing


def test_reference_detector_flags_only_unreferenced_definitions():
    package = (
        "class Report:\n"
        "    def to_json(self): ...\n"
        "    def from_json(cls, text): ...\n"
        "    def __eq__(self, other): ...\n"
        "    def unique(self): ...\n"
        "def used(): ...\n"
        "def bound_by_name(): ...\n"
        "def _private(): ...\n"
        "def unused(): ...\n"
    )
    user = (
        "from pkg import Report, used\n"
        "Report().to_json()\n"
        "setattr(pkg, 'bound_by_name', None)\n"
    )
    other_class = "Config.from_json(text)\nmake().unique()\n"
    read = [referenced_names(user), referenced_names(other_class)]
    assert unreferenced(package, read, {"to_json", "from_json"}) == [
        "Report.from_json (line 3)",
        "unused (line 9)",
    ]


def test_every_public_definition_is_referenced():
    texts = {
        path: path.read_text(encoding="utf-8")
        for directory in SEARCHED
        for path in sorted((REPO / directory).rglob("*.py"))
    }
    names = {path: referenced_names(text) for path, text in texts.items()}
    package = sorted(PACKAGE.rglob("*.py"))
    counts = Counter(name for path in package for name in method_names(texts[path]))
    shared = {name for name, n in counts.items() if n > 1}
    found = {}
    for path in package:
        read = [names[other] for other in texts if other != path]
        missing = unreferenced(texts[path], read, shared)
        if missing:
            found[str(path.relative_to(PACKAGE))] = missing
    assert found == {}


def test_no_global_statement():
    """Module state is bound once, at import: no function rebinds it."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []
