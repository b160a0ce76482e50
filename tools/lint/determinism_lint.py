#!/usr/bin/env python3
"""determinism_lint.py — project-specific determinism linter for hyparview.

Every verification gate in this repo (SweepRunner serial==threaded,
the bench event-count gate, adversarial determinism hard-fails, the
fig-spec bit-identity pins) rests on a rule set that used to be unwritten:
deterministic code must not iterate unordered containers, touch wall
clocks, draw from unseeded entropy, key containers by pointer, wrap
hot-path callables in std::function, or heap-allocate inside the
zero-alloc-gated functions. This linter makes those rules mechanical.

It is a tokenizer-level checker, not a compiler plugin: source text is
lexed so comments / string / char literals can never produce findings,
then rule patterns run over the stripped code. Function-granular rules
(zero-alloc gating) extract brace-matched bodies of the functions named
in lint_config.toml. That is deliberately simpler than libclang — the
rules target textual idioms (type names, API calls) that survive the
preprocessor unchanged, and the fixture self-test (--self-test) pins
each rule's fire/no-fire behavior so the heuristics cannot rot.

Exit codes: 0 clean, 1 findings or stale waivers, 2 usage/config error.

Usage:
  determinism_lint.py --root <repo-root>               # lint the tree
  determinism_lint.py --root <repo-root> --self-test   # run fixture corpus
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - python < 3.11
    tomllib = None

# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------
# scope values:
#   "deterministic"  — every walked file except those under
#                      scope.nondeterministic_dirs (net/ lives there: the
#                      TCP transport is wall-clock-driven by design)
#   "hot-path"       — only files under scope.hot_path_dirs (the sim /
#                      protocol hot paths where InplaceFunction replaced
#                      std::function in PR 2)
#   "gated-functions"— only inside bodies of [[zero_alloc]] functions


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    scope: str
    pattern: "re.Pattern[str]"
    message: str


RULES: list[Rule] = [
    Rule(
        name="unordered-container",
        scope="deterministic",
        pattern=re.compile(r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\b"),
        message=(
            "std::unordered_* in deterministic code: iteration order varies "
            "across libstdc++/libc++ and with pointer-derived hashes, which "
            "breaks fixed-seed bit-identity. Use common/flat_hash.hpp "
            "(FlatMap/insertion-ordered scans) or a sorted structure."
        ),
    ),
    Rule(
        name="wall-clock",
        scope="deterministic",
        pattern=re.compile(
            r"\bstd\s*::\s*chrono\s*::\s*"
            r"(?:system_clock|steady_clock|high_resolution_clock)\b"
            r"|\b(?:gettimeofday|clock_gettime|timespec_get|localtime"
            r"|localtime_r|gmtime|gmtime_r|strftime|ftime)\s*\("
            r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
        ),
        message=(
            "wall-clock read in deterministic code: simulated runs must "
            "derive every timestamp from sim::Simulator time (TimePoint "
            "ticks), never from the host clock. Real-time code belongs "
            "under net/."
        ),
    ),
    Rule(
        name="unseeded-entropy",
        scope="deterministic",
        pattern=re.compile(
            r"\bstd\s*::\s*random_device\b"
            r"|\b(?:rand|srand|random|srandom|rand_r|drand48|lrand48"
            r"|mrand48|arc4random|getentropy|getrandom)\s*\("
        ),
        message=(
            "unseeded entropy source: every random draw must come from a "
            "common/rng.hpp Rng stream seeded via derive_seed(master, "
            "stream) so experiments replay from a single master seed."
        ),
    ),
    Rule(
        name="pointer-keyed-container",
        scope="deterministic",
        pattern=re.compile(
            r"\b(?:FlatMap|std\s*::\s*(?:unordered_)?(?:multi)?(?:map|set))"
            r"\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*\s*[,>]"
        ),
        message=(
            "pointer-keyed container: pointer values depend on allocation "
            "order and ASLR, so any key-ordered or hashed walk over them "
            "is run-to-run nondeterministic. Key by NodeId / dense index "
            "instead."
        ),
    ),
    Rule(
        name="std-function-hot-path",
        scope="hot-path",
        pattern=re.compile(r"\bstd\s*::\s*function\b"),
        message=(
            "std::function in a sim/protocol hot path: it heap-allocates "
            "once the callable outgrows the SBO buffer, breaking the "
            "zero-alloc gates. Use common/function.hpp InplaceFunction."
        ),
    ),
    Rule(
        name="hot-path-alloc",
        scope="gated-functions",
        pattern=re.compile(
            r"\bnew\b(?!\s*\()"  # `new (addr) T` placement form is exempt
            r"|\bstd\s*::\s*make_(?:unique|shared)\b"
            r"|\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("
        ),
        message=(
            "explicit heap allocation inside a zero-alloc-gated function "
            "(see [[zero_alloc]] in tools/lint/lint_config.toml): this "
            "path is pinned allocation-free by bench/micro_sim_events. "
            "Recycle through sim/slot_pool.hpp or a reused scratch buffer."
        ),
    ),
]

RULE_BY_NAME = {r.name: r for r in RULES}

# --------------------------------------------------------------------------
# Lexer: blank comments and literals, preserving line structure
# --------------------------------------------------------------------------


def strip_code(text: str) -> str:
    """Returns `text` with comments, string literals and char literals
    replaced by spaces. Newlines are preserved so line numbers align."""
    out: list[str] = []
    i = 0
    n = len(text)

    def blank_until(j: int) -> None:
        nonlocal i
        for k in range(i, j):
            out.append("\n" if text[k] == "\n" else " ")
        i = j

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            blank_until(n if j == -1 else j)
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            blank_until(n if j == -1 else j + 2)
        elif c == '"':
            # Raw string? Look back through the prefix (R, u8R, LR, ...).
            m = re.search(r"(?:u8|[uUL])?R$", "".join(out[max(0, i - 3):i]))
            raw = m is not None and text[i - 1] == "R"
            if raw:
                dm = re.match(r'"([^()\\\s]{0,16})\(', text[i:])
                if dm:
                    closer = ")" + dm.group(1) + '"'
                    j = text.find(closer, i + dm.end())
                    out.append('"')
                    i += 1
                    blank_until(n if j == -1 else j + len(closer))
                    continue
            out.append('"')
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    blank_until(i + 2)
                elif text[i] == "\n":
                    break  # unterminated on this line; bail out
                else:
                    blank_until(i + 1)
            if i < n and text[i] == '"':
                out.append('"')
                i += 1
        elif c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() or prev == "_":
                # C++14 digit separator (1'000'000) or suffix context.
                out.append(c)
                i += 1
                continue
            out.append("'")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\" and i + 1 < n:
                    blank_until(i + 2)
                elif text[i] == "\n":
                    break
                else:
                    blank_until(i + 1)
            if i < n and text[i] == "'":
                out.append("'")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Gated-function body extraction
# --------------------------------------------------------------------------

_KEYWORDS = {"if", "while", "for", "switch", "catch", "return", "sizeof"}


def find_function_bodies(stripped: str, func: str) -> list[tuple[int, int]]:
    """Finds definitions of `func` ("Class::name" or "name") in stripped
    code and returns [(body_start_offset, body_end_offset)] — the offsets
    of the outermost braces. Matches every overload."""
    name = func.rsplit("::", 1)[-1]
    heads = []
    if "::" in func:
        cls = func.rsplit("::", 1)[0]
        heads.append(re.compile(
            r"(?<![\w:])" + re.escape(cls) + r"\s*::\s*" + re.escape(name)
            + r"\s*\("))
    # Bare-name form: out-of-class free functions and methods defined
    # inline in the class body (`void push(T item) { ... }`). Call sites
    # are rejected below because a call is followed by `;`, never `{`.
    heads.append(re.compile(r"(?<![\w:.>])" + re.escape(name) + r"\s*\("))
    matches: list["re.Match[str]"] = list(heads[0].finditer(stripped))
    if not matches and len(heads) > 1:
        matches = list(heads[1].finditer(stripped))
    bodies: list[tuple[int, int]] = []
    for m in matches:
        tok = re.findall(r"[\w:]+", stripped[max(0, m.start() - 64):m.start()])
        if tok and tok[-1].rsplit("::")[-1] in _KEYWORDS:
            continue
        # Match the parameter list.
        depth = 0
        j = m.end() - 1
        while j < len(stripped):
            if stripped[j] == "(":
                depth += 1
            elif stripped[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= len(stripped):
            continue
        # Skip qualifiers / trailing return / ctor-init-list up to `{`.
        # A `;` first means declaration or call statement — not a body.
        k = j + 1
        depth = 0
        found = -1
        while k < len(stripped):
            ch = stripped[k]
            if ch in "(<[":
                depth += 1
            elif ch in ")>]":
                depth -= 1
            elif depth == 0 and ch == "{":
                found = k
                break
            elif depth == 0 and (ch == ";" or ch == "}"):
                break
            k += 1
        if found == -1:
            continue
        # Brace-match the body.
        depth = 0
        e = found
        while e < len(stripped):
            if stripped[e] == "{":
                depth += 1
            elif stripped[e] == "}":
                depth -= 1
                if depth == 0:
                    break
            e += 1
        bodies.append((found, e + 1 if e < len(stripped) else len(stripped)))
    return bodies


# --------------------------------------------------------------------------
# Findings / waivers
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str
    snippet: str


@dataclasses.dataclass
class Waiver:
    rule: str
    path: str
    contains: str
    reason: str
    uses: int = 0


def load_toml(path: Path) -> dict:
    if tomllib is None:
        sys.exit(f"error: python {sys.version.split()[0]} lacks tomllib; "
                 "the linter needs python >= 3.11")
    try:
        with path.open("rb") as f:
            return tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")


def load_waivers(path: Path) -> list[Waiver]:
    if not path.exists():
        return []
    data = load_toml(path)
    waivers = []
    for i, w in enumerate(data.get("waiver", [])):
        for key in ("rule", "file", "contains", "reason"):
            if not isinstance(w.get(key), str) or not w[key].strip():
                sys.exit(f"error: {path}: waiver #{i + 1} needs a non-empty "
                         f"'{key}' string")
        if w["rule"] not in RULE_BY_NAME:
            sys.exit(f"error: {path}: waiver #{i + 1} names unknown rule "
                     f"'{w['rule']}' (known: {sorted(RULE_BY_NAME)})")
        waivers.append(Waiver(rule=w["rule"], path=w["file"],
                              contains=w["contains"], reason=w["reason"]))
    return waivers


# --------------------------------------------------------------------------
# Core check
# --------------------------------------------------------------------------


def in_any_dir(rel: str, dirs: list[str]) -> bool:
    return any(rel == d or rel.startswith(d.rstrip("/") + "/") for d in dirs)


def check_file(root: Path, rel: str, cfg: dict) -> list[Finding]:
    raw = (root / rel).read_text(encoding="utf-8", errors="replace")
    stripped = strip_code(raw)
    raw_lines = raw.splitlines()
    findings: list[Finding] = []

    deterministic = not in_any_dir(rel, cfg["nondeterministic_dirs"])
    hot = in_any_dir(rel, cfg["hot_path_dirs"])

    # Pre-compute line starts for offset → line translation.
    starts = [0]
    for off, ch in enumerate(stripped):
        if ch == "\n":
            starts.append(off + 1)

    def line_of(off: int) -> int:
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def emit(rule: Rule, off: int) -> None:
        ln = line_of(off)
        snippet = raw_lines[ln - 1].strip() if ln <= len(raw_lines) else ""
        findings.append(Finding(rel, ln, rule.name, rule.message, snippet))

    for rule in RULES:
        if rule.scope == "deterministic" and deterministic:
            for m in rule.pattern.finditer(stripped):
                emit(rule, m.start())
        elif rule.scope == "hot-path" and hot:
            for m in rule.pattern.finditer(stripped):
                emit(rule, m.start())

    alloc_rule = RULE_BY_NAME["hot-path-alloc"]
    for entry in cfg["zero_alloc"]:
        if entry["file"] != rel:
            continue
        bodies = find_function_bodies(stripped, entry["function"])
        if not bodies:
            findings.append(Finding(
                rel, 1, "hot-path-alloc",
                f"[[zero_alloc]] entry '{entry['function']}' matches no "
                "function definition in this file — stale config entry "
                "(renamed or moved function?). Update lint_config.toml.",
                ""))
            continue
        for s, e in bodies:
            for m in alloc_rule.pattern.finditer(stripped, s, e):
                emit(alloc_rule, m.start())
    return findings


def walk_tree(root: Path, cfg: dict) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[str] = set()
    excluded = [e.rstrip("/") + "/" for e in cfg.get("exclude_dirs", [])]
    for top in cfg["roots"]:
        base = root / top
        if not base.is_dir():
            sys.exit(f"error: scan root '{top}' not found under {root}")
        for p in sorted(base.rglob("*")):
            if p.suffix not in {".cpp", ".hpp", ".h", ".cc", ".hh"}:
                continue
            rel = p.relative_to(root).as_posix()
            if rel in seen or any(rel.startswith(e) for e in excluded):
                continue
            seen.add(rel)
            findings.extend(check_file(root, rel, cfg))
    return findings


def apply_waivers(findings: list[Finding], waivers: list[Waiver],
                  root: Path) -> tuple[list[Finding], list[str]]:
    raw_cache: dict[str, list[str]] = {}

    def raw_line(rel: str, ln: int) -> str:
        if rel not in raw_cache:
            raw_cache[rel] = (root / rel).read_text(
                encoding="utf-8", errors="replace").splitlines()
        lines = raw_cache[rel]
        return lines[ln - 1] if 0 < ln <= len(lines) else ""

    kept: list[Finding] = []
    for f in findings:
        waived = False
        for w in waivers:
            if (w.rule == f.rule and w.path == f.path
                    and w.contains in raw_line(f.path, f.line)):
                w.uses += 1
                waived = True
                break
        if not waived:
            kept.append(f)

    errors = [
        f"stale waiver: rule={w.rule} file={w.path} contains={w.contains!r} "
        "matched no finding — the code it excused is gone; delete the entry "
        "(tools/lint/waivers.toml)"
        for w in waivers if w.uses == 0
    ]
    return kept, errors


# --------------------------------------------------------------------------
# Fixture self-test
# --------------------------------------------------------------------------

FIXTURE_CFG = {
    "roots": ["tools/lint/fixtures"],
    "nondeterministic_dirs": ["tools/lint/fixtures/net_exempt"],
    "hot_path_dirs": ["tools/lint/fixtures/hot"],
    "zero_alloc": [
        {"function": "HotDemo::gated_push",
         "file": "tools/lint/fixtures/hot_path_alloc_bad.cpp"},
        {"function": "gated_inline",
         "file": "tools/lint/fixtures/hot_path_alloc_bad.cpp"},
        {"function": "HotDemo::gated_push",
         "file": "tools/lint/fixtures/hot_path_alloc_good.cpp"},
        {"function": "gated_inline",
         "file": "tools/lint/fixtures/hot_path_alloc_good.cpp"},
    ],
}

EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")


def self_test(root: Path) -> int:
    expected: set[tuple[str, int, str]] = set()
    base = root / FIXTURE_CFG["roots"][0]
    if not base.is_dir():
        sys.exit(f"error: fixture corpus missing at {base}")
    for p in sorted(base.rglob("*")):
        if p.suffix not in {".cpp", ".hpp"}:
            continue
        rel = p.relative_to(root).as_posix()
        for ln, line in enumerate(
                p.read_text(encoding="utf-8").splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in re.split(r"\s*,\s*", m.group(1)):
                    expected.add((rel, ln, rule))

    got = {(f.path, f.line, f.rule) for f in walk_tree(root, FIXTURE_CFG)}

    ok = True
    for miss in sorted(expected - got):
        print(f"SELF-TEST FAIL: expected finding did not fire: "
              f"{miss[0]}:{miss[1]} [{miss[2]}]")
        ok = False
    for extra in sorted(got - expected):
        print(f"SELF-TEST FAIL: unexpected finding (false positive): "
              f"{extra[0]}:{extra[1]} [{extra[2]}]")
        ok = False

    covered = {rule for _, _, rule in expected}
    for rule in RULE_BY_NAME:
        if rule not in covered:
            print(f"SELF-TEST FAIL: rule '{rule}' has no positive fixture — "
                  "add one under tools/lint/fixtures/")
            ok = False

    if ok:
        print(f"self-test OK: {len(expected)} expected findings fired, "
              f"no false positives, all {len(RULES)} rules covered")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                    help="repository root (default: ../../ from this script)")
    ap.add_argument("--config", type=Path, default=None,
                    help="lint_config.toml (default: alongside this script)")
    ap.add_argument("--waivers", type=Path, default=None,
                    help="waivers.toml (default: alongside this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus instead of linting the tree")
    args = ap.parse_args()

    root = args.root.resolve()
    if args.self_test:
        return self_test(root)

    here = Path(__file__).resolve().parent
    cfg_raw = load_toml(args.config or here / "lint_config.toml")
    scope = cfg_raw.get("scope", {})
    cfg = {
        "roots": scope.get("roots", ["src/hyparview"]),
        "nondeterministic_dirs": scope.get("nondeterministic_dirs", []),
        "hot_path_dirs": scope.get("hot_path_dirs", []),
        "exclude_dirs": scope.get("exclude_dirs", []),
        "zero_alloc": cfg_raw.get("zero_alloc", []),
    }
    for i, entry in enumerate(cfg["zero_alloc"]):
        for key in ("function", "file"):
            if not isinstance(entry.get(key), str) or not entry[key].strip():
                sys.exit(f"error: lint_config.toml [[zero_alloc]] #{i + 1} "
                         f"needs a non-empty '{key}'")

    waivers = load_waivers(args.waivers or here / "waivers.toml")
    findings = walk_tree(root, cfg)
    findings, waiver_errors = apply_waivers(findings, waivers, root)

    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if f.snippet:
            print(f"    > {f.snippet}")
    for e in waiver_errors:
        print(e)

    if findings or waiver_errors:
        print(f"\ndeterminism lint: {len(findings)} finding(s), "
              f"{len(waiver_errors)} stale waiver(s). Either fix the code or "
              "add a justified waiver to tools/lint/waivers.toml.")
        return 1
    print(f"determinism lint: clean ({len(waivers)} waiver(s) in use)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
