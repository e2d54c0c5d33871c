"""Source guards for the package: unused imports, file writes outside ``core``,
processes and threads, config values converted outside the typed walk, and
public names without a caller.

No linter is installed, so the checks walk the ``ast`` of each module.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fleetwarn"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    Names listed in ``__all__`` count as read; ``from __future__`` is skipped.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return sorted(bound - used)


def test_guard_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from a import b as c, d, e\n"
        "__all__ = ['d']\n"
        "def f():\n"
        "    import json\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["c", "e", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Writing a file is the job of core.write_json and core.write_csv alone.
WRITERS = {"json.dump", "csv.writer"}


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Each name an import binds anywhere in ``tree``, mapped to what it imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    return aliases


def _qualified(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """``module.name`` of a called name or attribute, through import aliases."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{aliases.get(node.value.id, node.value.id)}.{node.attr}"
    return None


def _write_mode(call: ast.Call, position: int) -> bool:
    """Whether the call opens for writing; a mode that is not a literal counts."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def file_writes(source: str) -> list[str]:
    """Calls that write a file: ``json.dump``, ``csv.writer``, or ``open`` for writing.

    ``open`` covers the builtin and ``io.open`` (mode second) and any
    ``<obj>.open`` such as ``Path.open`` (mode first); ``write_text`` and
    ``write_bytes`` always write.
    """
    tree = ast.parse(source)
    aliases = _import_aliases(tree)
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = _qualified(call.func, aliases)
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        if (
            name in WRITERS
            or (name in ("open", "io.open") and _write_mode(call, 1))
            or (attr == "open" and name != "io.open" and _write_mode(call, 0))
            or attr in ("write_text", "write_bytes")
        ):
            found.append(f"line {call.lineno}: {ast.unparse(call.func)}")
    return found


def test_guard_flags_file_writes():
    source = (
        "import csv\n"
        "import json as j\n"
        "from csv import writer\n"
        "from pathlib import Path\n"
        "open('a')\n"
        "open('a', 'rb')\n"
        "open('a', encoding='utf-8')\n"
        "j.load(fh)\n"
        "csv.reader(fh)\n"
        "open('a', 'w')\n"
        "open('a', mode='a')\n"
        "Path('a').open('r+')\n"
        "Path('a').open(mode)\n"
        "j.dump({}, fh)\n"
        "writer(fh)\n"
        "Path('a').write_text('')\n"
    )
    assert file_writes(source) == [
        "line 10: open",
        "line 11: open",
        "line 12: Path('a').open",
        "line 13: Path('a').open",
        "line 14: j.dump",
        "line 15: writer",
        "line 16: Path('a').write_text",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "core.py"), ids=lambda p: p.name
)
def test_only_core_writes_files(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []


def test_core_writes_through_one_json_and_one_csv_writer():
    """``write_json`` and ``write_csv`` hold core's only writes: two opens, one dump, one writer."""
    writes = file_writes((SRC / "core.py").read_text(encoding="utf-8"))
    calls = sorted(w.split(": ", 1)[1] for w in writes)
    assert calls == ["csv.writer", "json.dump", "open", "open"]



# Processes and threads start only where core reads or writes telemetry
# rows, through the one helper that forks.
CONCURRENCY = ("os.fork", "multiprocessing", "subprocess", "concurrent.futures", "threading")
TELEMETRY_WRITER = {"_forked", "read_telemetry_csv", "write_telemetry_csv"}


def concurrency_uses(source: str) -> list[str]:
    """Imports of, and attributes read through, a process or thread API.

    Each is ``<holder>: line N: <name>``, where the holder is the top-level
    function or class it sits in, or ``<module>``; attributes are followed
    through import aliases.
    """
    tree = ast.parse(source)
    aliases = _import_aliases(tree)
    found = []
    for top in tree.body:
        holder = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [_qualified(node, aliases)]
            else:
                continue
            found.extend(
                f"{holder}: line {node.lineno}: {name}" for name in names
                if any(name == c or name.startswith(c + ".") for c in CONCURRENCY)
            )
    return found


def test_guard_flags_processes_and_threads():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import threading\n"
        "def f():\n"
        "    import multiprocessing as mp\n"
        "    return os.fork(), os.forkpty, osp.join, mp.get_context\n"
        "class C:\n"
        "    def g(self):\n"
        "        from concurrent.futures import ThreadPoolExecutor\n"
        "        from concurrent import futures\n"
        "        import concurrent.futures.thread\n"
        "        return subprocess.run\n"
        "from os import fork as spoon, getpid\n"
        "import os as o\n"
        "o.fork\n"
    )
    assert concurrency_uses(source) == [
        "<module>: line 3: threading",
        "f: line 5: multiprocessing",
        "f: line 6: multiprocessing.get_context",
        "f: line 6: os.fork",
        "C: line 9: concurrent.futures.ThreadPoolExecutor",
        "C: line 10: concurrent.futures",
        "C: line 11: concurrent.futures.thread",
        "C: line 12: subprocess.run",
        "<module>: line 13: os.fork",
        "<module>: line 15: os.fork",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_processes_start_only_in_the_telemetry_writer(path):
    """Core's telemetry reader starts processes too, through the writer's ``_forked``."""
    allowed = TELEMETRY_WRITER if path.name == "core.py" else set()
    uses = concurrency_uses(path.read_text(encoding="utf-8"))
    assert [u for u in uses if u.split(":")[0] not in allowed] == []


# Every config value reaches a dataclass through ``cli._typed``, the one typed
# walk of the config schema: the code that loads the config converts no value.
COERCIONS = {"int", "float", "str", "bool"}
CONFIG_LOADERS = {"RunConfig", "load_config"}


def coercions(source: str, holders: set[str]) -> list[str]:
    """Calls of ``int``, ``float``, ``str`` or ``bool`` by name inside the named
    top-level functions and classes, as ``<holder>: line N: <name>``."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in holders:
            found.extend(
                f"{top.name}: line {node.lineno}: {node.func.id}" for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in COERCIONS
            )
    return sorted(found)


def test_guard_flags_coercions():
    source = (
        "class RunConfig:\n"
        "    def __init__(self, raw):\n"
        "        self.w = int(raw['w']), kind(raw), raw.float()\n"
        "        self.p = [str(p) for p in raw['io']]\n"
        "def load_config(path):\n"
        "    return bool(path)\n"
        "def _typed(value, kind):\n"
        "    return float(value)\n"
    )
    assert coercions(source, CONFIG_LOADERS) == [
        "RunConfig: line 3: int",
        "RunConfig: line 4: str",
        "load_config: line 6: bool",
    ]


def test_config_values_reach_dataclasses_through_the_typed_walk():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert CONFIG_LOADERS <= {getattr(top, "name", None) for top in ast.parse(source).body}
    assert coercions(source, CONFIG_LOADERS) == []


# Every public function and class has a caller in the package, bar the names
# the benchmark's tracer wraps (its ``SITES``), which it requires to exist.
TRACER = SRC.parents[1] / "perfbench" / "tracer.py"


def uncalled_public_names(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """``module.name`` of each public top-level function or class that no
    module but ``__init__`` reads as a ``Name`` or an ``Attribute``."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.extend(
            (module, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
        if module != "__init__":
            read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
            read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return [f"{m}.{name}" for m, name in defined if name not in read | exempt]


def test_guard_flags_public_names_without_a_caller():
    sources = {
        "__init__": "from pkg.a import orphan, Used\n__all__ = ['orphan', 'Used']\n",
        "a": (
            "def orphan(): pass\n"
            "def _private(): pass\n"
            "def traced(): pass\n"
            "class Used: pass\n"
            "def self_caller(): return Used()\n"
            "async def waits(): pass\n"
            "def outer():\n"
            "    def inner(): pass\n"
        ),
        "b": "import a\na.self_caller()\nouter\n",
    }
    assert uncalled_public_names(sources, {"traced"}) == ["a.orphan", "a.waits"]


def test_every_public_name_has_a_caller():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    exempt = {site.rpartition(".")[2] for site in tracer.SITES}
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert uncalled_public_names(sources, exempt) == []
