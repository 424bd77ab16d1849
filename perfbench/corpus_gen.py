"""Seeded, download-free synthetic Java corpus with planted trace links.

Shape: invented words; N classes spread over 20 packages; every class has a
12-word topic, 4 fields and 6 commented methods built from that topic.  Every
requirement is 60 words drawn from the topics of 2 to 6 classes, and those
classes are its planted gold links.  The same seed gives byte-identical files.

Layout written under the output directory:

    src/<package path>/<Class>.java   input of `extract` / `trace --src`
    reqs/req_NNNN.txt                 input of `trace --reqs`
    gold.json                         planted links, input of `trace --gold`
    declarations.json                 planted classes, fields and methods

Run as a script to write one corpus:

    python3 perfbench/corpus_gen.py --classes 1000 --requirements 100 \
        --seed 1 --out corpus
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

PACKAGES = 20
TOPIC_WORDS = 12
FIELDS = 4
METHODS = 6
REQUIREMENT_WORDS = 60
LINKS_PER_REQUIREMENT = (2, 6)
# Invented topic words per class.  Fewer words make more topics overlap;
# at 8, trace precision at threshold 0.15 is about 0.87.
WORDS_PER_CLASS = 8

# Real words every class shares (locals, helper calls, comments), so the
# cosine between unrelated documents is small but not zero.
COMMON_WORDS = (
    "value index result count buffer item data state size update handle "
    "record entry source target current total limit offset status manager "
    "process create remove check load store format parse"
).split()

_ONSETS = "b c d f g h k l m n p r s t v z br dr gr kl pl st tr".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "", "n", "r", "l", "s", "m"]
_FIELD_TYPES = ("int", "String", "double", "long", "boolean")


@dataclass(frozen=True)
class ClassSpec:
    package: str
    name: str
    topic: tuple[str, ...]
    fields: tuple[str, ...]
    methods: tuple[str, ...]


def _cap(word: str) -> str:
    return word[:1].upper() + word[1:]


def _camel(first: str, second: str) -> str:
    return first + _cap(second)


def invent_words(rng: random.Random, count: int) -> list[str]:
    """`count` distinct lowercase pseudo-words of two or three syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((2, 2, 3)))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def plan_classes(rng: random.Random, classes: int) -> list[ClassSpec]:
    """Topics, unique class names and member names for every class."""
    vocabulary = invent_words(rng, PACKAGES + max(400, classes * WORDS_PER_CLASS))
    packages = [f"com.bench.{word}" for word in vocabulary[:PACKAGES]]
    topic_pool = vocabulary[PACKAGES:]
    specs: list[ClassSpec] = []
    names: set[str] = set()
    for i in range(classes):
        topic = tuple(rng.sample(topic_pool, TOPIC_WORDS))
        name = _cap(topic[0]) + _cap(topic[1])
        extra = 2
        while name in names:
            name += _cap(topic[extra])
            extra += 1
        names.add(name)
        fields = tuple(_camel(topic[2 + j], rng.choice(topic)) for j in range(FIELDS))
        methods = tuple(_camel(rng.choice(topic), topic[6 + j]) for j in range(METHODS))
        specs.append(
            ClassSpec(
                package=packages[i % PACKAGES],
                name=name,
                topic=topic,
                fields=tuple(dict.fromkeys(fields)),
                methods=tuple(dict.fromkeys(methods)),
            )
        )
    return specs


def _sentence(words: list[str]) -> str:
    return _cap(" ".join(words)) + "."


def java_source(rng: random.Random, spec: ClassSpec) -> str:
    """One compilation unit holding the class; ~1/3 of classes use an
    `implements` clause, a generic field or `@Override`, which the parser
    reports as warnings."""
    topic = list(spec.topic)
    lines = [f"package {spec.package};", "", "import java.util.List;", ""]
    lines.append("/**")
    lines.append(f" * {_sentence(topic)}")
    lines.append(f" * {_sentence(rng.sample(topic, 6) + rng.sample(COMMON_WORDS, 2))}")
    lines.append(" */")
    implements = " implements java.io.Serializable" if rng.random() < 0.3 else ""
    lines.append(f"public class {spec.name}{implements} {{")
    for j, field in enumerate(spec.fields):
        if j == FIELDS - 1 and rng.random() < 0.3:
            field_type = "List<String>"
        else:
            field_type = _FIELD_TYPES[(j + len(field)) % len(_FIELD_TYPES)]
        lines.append(f"    private {field_type} {field};")
    for j, method in enumerate(spec.methods):
        parameter = _camel(rng.choice(COMMON_WORDS), rng.choice(topic))
        local = _camel(rng.choice(topic), rng.choice(COMMON_WORDS))
        field = spec.fields[j % len(spec.fields)]
        callee = spec.methods[(j + 1) % len(spec.methods)]
        comment = rng.sample(topic, 5) + rng.sample(COMMON_WORDS, 2)
        lines.append("")
        lines.append(f"    /** {_sentence(comment)} */")
        if rng.random() < 0.2:
            lines.append("    @Override")
        lines.append(f"    public int {method}(int {parameter}) {{")
        lines.append(f"        // {_sentence(rng.sample(topic, 3))}")
        lines.append(f"        int {local} = {parameter} + 1;")
        lines.append(f"        this.{field} = {callee}({local});")
        lines.append(f"        return {local};")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def requirement_text(rng: random.Random, linked: list[ClassSpec]) -> str:
    """60 topic words of the linked classes, one in five a common word."""
    words = []
    for _ in range(REQUIREMENT_WORDS):
        if rng.random() < 0.2:
            words.append(rng.choice(COMMON_WORDS))
        else:
            words.append(rng.choice(rng.choice(linked).topic))
    sentences = [
        "The system shall " + " ".join(words[i : i + 10]) + "."
        for i in range(0, REQUIREMENT_WORDS, 10)
    ]
    return "\n".join(sentences) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


def generate(out: Path, classes: int, requirements: int, seed: int) -> dict:
    """Write one corpus under `out`; return its input sizes."""
    rng = random.Random(seed)
    specs = plan_classes(rng, classes)
    source_bytes = 0
    for spec in specs:
        text = java_source(rng, spec)
        source_bytes += len(text.encode("utf-8"))
        _write(out / "src" / spec.package.replace(".", "/") / f"{spec.name}.java", text)
    gold: dict[str, list[str]] = {}
    for r in range(1, requirements + 1):
        linked = rng.sample(specs, rng.randint(*LINKS_PER_REQUIREMENT))
        _write(out / "reqs" / f"req_{r:04d}.txt", requirement_text(rng, linked))
        gold[f"req {r:04d}"] = sorted(spec.name for spec in linked)
    _write(out / "gold.json", json.dumps(gold, indent=2, sort_keys=True) + "\n")
    declarations = {
        spec.name: {"fields": list(spec.fields), "methods": list(spec.methods)}
        for spec in specs
    }
    _write(
        out / "declarations.json",
        json.dumps(declarations, indent=2, sort_keys=True) + "\n",
    )
    return {
        "classes": classes,
        "requirements": requirements,
        "gold_links": sum(len(v) for v in gold.values()),
        "source_bytes": source_bytes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", type=int, required=True)
    parser.add_argument("--requirements", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sizes = generate(args.out, args.classes, args.requirements, args.seed)
    print(json.dumps(sizes, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
