"""Every reader of an outside text file skips a leading UTF-8 byte-order
mark, so a copy saved with one loads equal to the plain file."""

import codecs
from pathlib import Path

import pytest

import ltlkit
from ltlkit.evaluation import load_dataset
from ltlkit.planner import load_world
from ltlkit.prompts import load_prompt_set
from ltlkit.srl import load_lexicon

DATA = Path(ltlkit.__file__).parent / "data"


@pytest.mark.parametrize("load,path", [
    (load_world, DATA / "worlds" / "demo.world"),
    (load_prompt_set, DATA / "prompts" / "drone.prompts"),
    (load_lexicon, DATA / "lexicon.txt"),
    (load_dataset, Path(__file__).parent / "fixtures" / "eval_demo.jsonl"),
], ids=["world", "prompt-set", "lexicon", "dataset"])
def test_a_byte_order_mark_is_skipped(tmp_path, load, path):
    copy = tmp_path / path.name
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert vars(load(copy)) == vars(load(path))
