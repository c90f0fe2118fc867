"""Mini promtool: parse + validate the Prometheus text exposition format.

Covers the 0.0.4 subset :func:`repro.telemetry.export.render` emits,
strictly enough to catch the classes of breakage a real scraper would
reject:

* label quoting and the three escapes (``\\``, ``\"``, ``\\n``);
* ``# HELP`` / ``# TYPE`` at most once per family, before its samples,
  HELP before TYPE when both are present;
* family contiguity (all samples of a family adjacent);
* histogram structure per label set: ``_bucket`` series with a ``+Inf``
  bucket, cumulative counts monotone in ``le``, ``_count`` equal to the
  ``+Inf`` bucket, ``_sum`` present.

:func:`parse` returns the :class:`~repro.telemetry.export.Family` model
that :func:`~repro.telemetry.export.render` formats (both re-exported
here), so ``render(parse(text)) == text`` for the repo's own output.
That is how the sweep aggregator merges per-worker registries (parse
each artifact, :func:`add_labels` a cell label, :func:`merge`, render
once) without ever concatenating raw text — the format forbids duplicate
``# TYPE`` lines, so naive concatenation of two valid exports is invalid.
"""

from __future__ import annotations

import math
import re

from repro.telemetry.export import Family, Sample, render
from repro.telemetry.metrics import full_name

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

_HIST_SUFFIXES = ("_bucket", "_sum", "_count")


class PromParseError(ValueError):
    """Malformed exposition text; message carries the 1-based line number."""


def _family_of(sample_name: str, typed_hist: set[str]) -> str:
    for suffix in _HIST_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in typed_hist:
                return base
    return sample_name


def _parse_labels(text: str, lineno: int) -> tuple[dict[str, str], int]:
    """Parse ``{k="v",...}`` starting at text[0] == '{'; returns labels and
    the index just past the closing brace."""
    labels: dict[str, str] = {}
    i = 1
    while True:
        if i >= len(text):
            raise PromParseError(f"line {lineno}: unterminated label set")
        if text[i] == "}":
            return labels, i + 1
        m = _LABEL_NAME_RE.match(text, i)
        if not m:
            raise PromParseError(f"line {lineno}: bad label name at {text[i:]!r}")
        name = m.group(0)
        i = m.end()
        if i >= len(text) or text[i] != "=":
            raise PromParseError(f"line {lineno}: expected '=' after label {name}")
        i += 1
        if i >= len(text) or text[i] != '"':
            raise PromParseError(
                f"line {lineno}: label value for {name} must be double-quoted"
            )
        i += 1
        out: list[str] = []
        while True:
            if i >= len(text):
                raise PromParseError(
                    f"line {lineno}: unterminated label value for {name}"
                )
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text):
                    raise PromParseError(
                        f"line {lineno}: dangling escape in label {name}"
                    )
                esc = text[i + 1]
                if esc == "\\":
                    out.append("\\")
                elif esc == '"':
                    out.append('"')
                elif esc == "n":
                    out.append("\n")
                else:
                    raise PromParseError(
                        f"line {lineno}: invalid escape \\{esc} in label {name}"
                    )
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                out.append(ch)
                i += 1
        if name in labels:
            raise PromParseError(f"line {lineno}: duplicate label {name}")
        labels[name] = "".join(out)
        if i < len(text) and text[i] == ",":
            i += 1


def _unescape_help(text: str) -> str:
    # Left-to-right scan so an escaped backslash never re-combines with a
    # following 'n' into a newline.
    return re.sub(r"\\(\\|n)",
                  lambda m: "\\" if m.group(1) == "\\" else "\n", text)


def _parse_value(text: str, lineno: int) -> float:
    txt = text.strip()
    if not txt:
        raise PromParseError(f"line {lineno}: missing sample value")
    try:
        return float(txt.replace("+Inf", "inf").replace("-Inf", "-inf"))
    except ValueError:
        raise PromParseError(f"line {lineno}: bad sample value {txt!r}") from None


def parse(text: str) -> list[Family]:
    """Parse exposition text into families, validating as it goes."""
    families: dict[str, Family] = {}
    closed: set[str] = set()      # families whose sample block has ended
    typed_hist: set[str] = set()  # families declared `# TYPE ... histogram`
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment
            if len(parts) < 3:
                raise PromParseError(f"line {lineno}: {parts[1]} missing metric name")
            kind, name = parts[1], parts[2]
            if not _NAME_RE.fullmatch(name):
                raise PromParseError(f"line {lineno}: bad metric name {name!r}")
            fam = families.setdefault(name, Family(name))
            if fam.samples or name in closed:
                raise PromParseError(
                    f"line {lineno}: # {kind} {name} after its samples"
                )
            if kind == "HELP":
                if fam.help is not None:
                    raise PromParseError(f"line {lineno}: duplicate HELP for {name}")
                if fam.type is not None:
                    raise PromParseError(
                        f"line {lineno}: HELP for {name} must precede TYPE"
                    )
                fam.help = _unescape_help(parts[3] if len(parts) > 3 else "")
            else:
                if fam.type is not None:
                    raise PromParseError(f"line {lineno}: duplicate TYPE for {name}")
                if len(parts) < 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary", "untyped"):
                    raise PromParseError(
                        f"line {lineno}: bad TYPE for {name}: {line!r}"
                    )
                fam.type = parts[3]
                if fam.type == "histogram":
                    typed_hist.add(name)
            if current is not None and current != name:
                closed.add(current)
            current = name
            continue

        m = _NAME_RE.match(line)
        if not m:
            raise PromParseError(f"line {lineno}: bad sample line {line!r}")
        sample_name = m.group(0)
        rest = line[m.end():]
        labels: dict[str, str] = {}
        if rest.startswith("{"):
            labels, consumed = _parse_labels(rest, lineno)
            rest = rest[consumed:]
        if rest[:1] not in (" ", "\t"):
            raise PromParseError(f"line {lineno}: missing value separator")
        value_text = rest.strip()
        if len(value_text.split()) > 1:
            # We never emit timestamps; reject them to keep round-trips exact.
            raise PromParseError(f"line {lineno}: unexpected trailing fields")
        value = _parse_value(value_text, lineno)

        fam_name = _family_of(sample_name, typed_hist)
        if fam_name in closed:
            raise PromParseError(
                f"line {lineno}: family {fam_name} is not contiguous"
            )
        if current is not None and current != fam_name:
            closed.add(current)
        current = fam_name
        fam = families.setdefault(fam_name, Family(fam_name))
        fam.samples.append(Sample(sample_name, labels, value, value_text))

    out = list(families.values())
    validate(out)
    return out


def validate(families: list[Family]) -> None:
    """Check histogram structure per label set (module docstring); raise
    :class:`PromParseError` on the first violation."""
    for fam in families:
        if fam.type == "histogram":
            _validate_histogram(fam)


def _validate_histogram(fam: Family) -> None:
    series = fam.series()
    buckets: dict[tuple, list[Sample]] = {}
    sums: dict[tuple, Sample] = {}
    counts: dict[tuple, Sample] = {}
    for (name, key_labels), samples in series.items():
        if name == fam.name + "_bucket":
            buckets[key_labels] = samples
        elif name == fam.name + "_sum":
            sums[key_labels] = samples[0]
        elif name == fam.name + "_count":
            counts[key_labels] = samples[0]
        else:
            raise PromParseError(
                f"histogram {fam.name}: unexpected sample {name}"
            )
    label_txt = lambda key: full_name("", key) or "{}"  # noqa: E731
    for key, samples in buckets.items():
        les: list[float] = []
        cums: list[float] = []
        for s in samples:
            if "le" not in s.labels:
                raise PromParseError(
                    f"histogram {fam.name}{label_txt(key)}: bucket without le"
                )
            le = _parse_value(s.labels["le"], 0)
            les.append(le)
            cums.append(s.value)
        if not les or not math.isinf(les[-1]) or les[-1] < 0:
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: missing +Inf bucket"
            )
        if les != sorted(les):
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: le not ascending"
            )
        if any(b > a for a, b in zip(cums[1:], cums)):
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: counts not cumulative"
            )
        if key not in counts:
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: missing _count"
            )
        if counts[key].value != cums[-1]:
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: _count "
                f"{counts[key].value:g} != +Inf bucket {cums[-1]:g}"
            )
        if key not in sums:
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: missing _sum"
            )
    for key in list(sums) + list(counts):
        if key not in buckets:
            raise PromParseError(
                f"histogram {fam.name}{label_txt(key)}: _sum/_count without buckets"
            )


# -- aggregation helpers ----------------------------------------------------
def add_labels(families: list[Family], **labels: str) -> list[Family]:
    """Return families with ``labels`` merged into every sample (new labels
    win on collision — the aggregator's cell label overrides)."""
    out: list[Family] = []
    for fam in families:
        nf = Family(fam.name, fam.type, fam.help)
        for s in fam.samples:
            nf.samples.append(Sample(s.name, {**s.labels, **labels},
                                     s.value, s.value_text))
        out.append(nf)
    return out


def merge(groups: list[list[Family]]) -> list[Family]:
    """Merge family lists from several sources into one exposition set.

    Same-name families must agree on type; samples concatenate in source
    order.  Help text: first non-empty wins.
    """
    merged: dict[str, Family] = {}
    for families in groups:
        for fam in families:
            cur = merged.get(fam.name)
            if cur is None:
                merged[fam.name] = Family(fam.name, fam.type, fam.help,
                                          list(fam.samples))
                continue
            if fam.type is not None:
                if cur.type is not None and cur.type != fam.type:
                    raise PromParseError(
                        f"family {fam.name}: conflicting types "
                        f"{cur.type} vs {fam.type}"
                    )
                cur.type = cur.type or fam.type
            cur.help = cur.help or fam.help
            cur.samples.extend(fam.samples)
    return sorted(merged.values(), key=lambda f: f.name)


__all__ = [
    "Family",
    "PromParseError",
    "Sample",
    "add_labels",
    "merge",
    "parse",
    "render",
    "validate",
]
