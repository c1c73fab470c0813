"""Generated configuration reference.

The README's configuration tables are *generated* from the schema and
the env-var registry, between marker comments, so they cannot drift
from the code::

    python -m repro.harness config docs            # rewrite in place
    python -m repro.harness config docs --check    # CI freshness gate
"""

import json

from repro.config import envreg
from repro.config.schema import schema

BEGIN_MARK = ("<!-- BEGIN GENERATED CONFIG REFERENCE "
              "(python -m repro.harness config docs) -->")
END_MARK = "<!-- END GENERATED CONFIG REFERENCE -->"


def _fmt_default(value):
    if value is None:
        return "unset"
    return "`%s`" % json.dumps(value)


def generate_reference():
    """The full markdown reference block (between the markers)."""
    lines = [BEGIN_MARK, ""]
    lines.append("#### Configuration keys")
    lines.append("")
    lines.append("Dotted model keys. A job's snapshot holds every key of "
                 "the sections its kind activates, at this default unless "
                 "a `--set` or sweep override names it; the snapshot is "
                 "what the job hashes and simulates.")
    lines.append("")
    lines.append("| key | type | default | description |")
    lines.append("|---|---|---|---|")
    table = schema()
    for key in sorted(table):
        spec = table[key]
        doc = spec.doc
        if spec.choices:
            doc = "%s Choices: %s." % (doc, ", ".join(
                "`%s`" % choice for choice in spec.choices))
        lines.append("| `%s` | %s | %s | %s |"
                     % (spec.key, spec.type.__name__,
                        _fmt_default(spec.default), doc))
    lines.append("")
    lines.append("#### Environment variables")
    lines.append("")
    lines.append("Runtime settings. Every `REPRO_*` variable is declared "
                 "in `repro.config.envreg`; all reads go through the "
                 "registry, and none enters a job's snapshot or hash.")
    lines.append("")
    lines.append("| variable | type | default | description |")
    lines.append("|---|---|---|---|")
    for var, _raw, _parsed in envreg.environment_report(env={}):
        lines.append("| `%s` | %s | %s | %s |"
                     % (var.name, var.type, _fmt_default(var.default),
                        var.doc))
    lines.append("")
    lines.append(END_MARK)
    return "\n".join(lines)


def update_file(path, check=False):
    """Rewrite (or with ``check``, verify) the generated block in
    ``path``. Returns True when the file was already up to date."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError("%s has no generated-config markers (%s / %s)"
                         % (path, BEGIN_MARK, END_MARK))
    updated = (text[:begin] + generate_reference()
               + text[end + len(END_MARK):])
    fresh = updated == text
    if not fresh and not check:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(updated)
    return fresh
