"""The package defines nothing that only tests or nobody use.

Every function or class in src/rsuq must be referenced inside the package
(as a name, an attribute or an import) or exported through rsuq.__all__;
a helper kept only for a test belongs in that test.  An export that no
other module of the package uses must be named in README.md, so a test
helper cannot stay public by being exported.  A method counts as
used only through an attribute reference, so a local variable of the same
name does not keep it, and fields read off the argparse namespace (`args.x`)
count for nothing.  Every name a module other than __init__.py imports
is referenced in that module.  Every identifier README.md names in
backticks is defined or referenced in src/rsuq.  The package holds only
.py files, and no float literal of more than 9 significant digits: a
constant the code derives must not come back as a decimal copy.
"""

import ast
import inspect
import io
import pathlib
import re
import tokenize

import rsuq

SRC = pathlib.Path(rsuq.__file__).parent


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _references(trees):
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names, attrs


def test_every_definition_is_used_or_exported():
    trees = _trees()
    names, attrs = _references(trees)
    used = names | attrs | set(rsuq.__all__)
    unused = []
    for module, tree in trees.items():
        owner = {id(item): cls.name + "." for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for item in cls.body}
        unused += sorted(
            f"{module}:{owner.get(id(node), '')}{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in (attrs if id(node) in owner else used))
    assert not unused, "defined in src/rsuq but never used or exported: " + ", ".join(unused)


def test_every_export_is_used_or_documented():
    trees = _trees()
    del trees["__init__.py"]  # its imports and __all__ are the exports themselves
    names, attrs = _references(trees)
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    orphans = [name for name in rsuq.__all__
               if name not in names | attrs and not re.search(rf"\b{name}\b", readme)]
    assert not orphans, "exported, unused in src/rsuq and not in README.md: " + ", ".join(orphans)


def test_every_export_resolves():
    missing = [name for name in rsuq.__all__ if not hasattr(rsuq, name)]
    assert not missing, missing
    assert len(set(rsuq.__all__)) == len(rsuq.__all__)


def test_every_import_is_used():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__.py":  # its imports are the exports
            continue
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{module}:{name}" for name in bound if name not in names]
    assert not unused, "imported in src/rsuq but never referenced: " + ", ".join(unused)


def test_lattice_constructor_signature():
    # every constant is checked or derived from G (det always is): a new
    # constructor option has to change this test
    assert list(inspect.signature(rsuq.Lattice).parameters) == [
        "name", "G", "packing_radius", "covering_radius", "nsm", "family"]


def test_mc_tests_arrays_and_runs_no_encoder():
    # rsuq.mc computes statistics of the arrays it is given: inside the
    # package it reads only the closed-form bounds and the dither generator
    imported = set()
    for node in ast.walk(_trees()["mc.py"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "rsuq":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "rsuq")
    assert imported <= {"bounds", "dither"}, sorted(imported)


def test_quantizer_imports_no_private_lattice_name():
    # the rejection loop needs nothing of lattices beyond its public names,
    # and asks a lattice no family question: it reads no private attribute
    # and no `native` or `family`, so a new family changes lattices.py alone
    tree = _trees()["quantizer.py"]
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.rsplit(".", 1)[-1] == "lattices"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private
    read = sorted(f"{node.attr}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and (node.attr.startswith("_") or node.attr in ("native", "family")))
    assert not read, read


# A backticked span that is a dotted name, maybe called: `f(x)`, `Lattice.nearest_rows`.
_README_NAME = re.compile(r"([A-Za-z_][\w.]*?)(?:\(.*\))?", re.S)


def test_readme_names_only_what_src_defines():
    # snake_case names with a lowercase letter and CamelCase names of 5 or
    # more characters, on their last dotted part; ids such as `E8`, `VQF1`
    # and `M_TRIM_THRESHOLD` and plain words such as `numpy` are not checked
    trees = _trees()
    names, attrs = _references(trees)
    defined = names | attrs | {node.name for tree in trees.values() for node in ast.walk(tree)
                               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    missing = set()
    for span in re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", readme, flags=re.S)):
        m = _README_NAME.fullmatch(span)
        name = m and m.group(1).rsplit(".", 1)[-1]
        if (m and name != name.upper() and ("_" in name or len(name) >= 5 and name[0].isupper())
                and name not in defined):
            missing.add(name)
    assert not missing, "README.md names what src/rsuq does not define: " + ", ".join(
        sorted(missing))


def test_package_states_no_decimal_copies():
    stray = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*")
                   if "__pycache__" not in p.parts and p.suffix != ".py")
    assert not stray, "src/rsuq holds more than .py files: " + ", ".join(stray)
    long = []
    for where, number in _numbers():
        text = number.lower().replace("_", "")
        if text.startswith("0x") or text.endswith("j"):
            continue
        if "." in text or "e" in text:
            digits = text.split("e")[0].replace(".", "").lstrip("0")
            if len(digits) > 9:
                long.append(f"{where}: {number}")
    assert not long, "float literals with more than 9 significant digits: " + ", ".join(long)


def test_float_slack_is_written_once():
    # the lattice rules and the registry checks share one relative slack,
    # lattices._SLACK; a second copy of the literal could drift from it
    found = [where for where, number in _numbers() if ast.literal_eval(number) == 1e-12]
    assert len(found) == 1 and found[0].startswith("lattices.py:"), found


def _numbers():
    # (file:line, text) of every number literal in src/rsuq
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NUMBER:
                yield f"{path.name}:{tok.start[0]}", tok.string
