"""The miner's five records behave as the dataclasses they replaced: the
same constructors and defaults, equality field by field with a record of
the same class only, no hash, the same repr and `__match_args__`, and no
`__dict__` on the two slotted ones."""

import pytest

from ustep.miner import (
    MessageCost,
    MinerConfig,
    MinerStats,
    ParseResult,
    Template,
)
from ustep.tokens import ConfigError

#: class -> (its fields in order, the fields of one record, those of an
#: unequal one, that first record's repr as the dataclass wrote it)
RECORDS = {
    MinerConfig: (
        ("sigma", "phi", "mask_rules", "strict_wildcard_sim"),
        (0.4, 3, [r"\d+"], True), (0.4, 3, [r"\d+"], False),
        r"MinerConfig(sigma=0.4, phi=3, mask_rules=['\\d+'], "
        "strict_wildcard_sim=True)"),
    Template: (
        ("id", "tokens", "match_count"),
        (7, ["open", "<*>", "x"], 2), (7, ["open", "<*>", "y"], 2),
        "Template(id=7, tokens=['open', '<*>', 'x'], match_count=2)"),
    MinerStats: (
        ("node_count", "template_count", "messages_processed",
         "splits_performed", "max_depth"),
        (3, 2, 5, 1, 2), (3, 2, 6, 1, 2),
        "MinerStats(node_count=3, template_count=2, messages_processed=5, "
        "splits_performed=1, max_depth=2)"),
    ParseResult: (
        ("template_id", "template_text", "variables", "created_new"),
        (4, "open <*>", ["a.txt"], True), (4, "open <*>", ["b.txt"], True),
        "ParseResult(template_id=4, template_text='open <*>', "
        "variables=['a.txt'], created_new=True)"),
    MessageCost: (
        ("descent_steps", "simf_evals", "pivot_scans"),
        (2, 3, 0), (2, 3, 1),
        "MessageCost(descent_steps=2, simf_evals=3, pivot_scans=0)"),
}

each_record = pytest.mark.parametrize("cls", list(RECORDS),
                                      ids=lambda cls: cls.__name__)


def fields(record):
    return tuple(getattr(record, name) for name in RECORDS[type(record)][0])


@each_record
def test_a_record_takes_its_fields_by_position_or_keyword(cls):
    names, values, _, _ = RECORDS[cls]
    assert cls.__match_args__ == names
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert fields(by_position) == fields(by_keyword) == values
    with pytest.raises(TypeError):
        cls(*values, 0)


@pytest.mark.parametrize("record, values", [
    (MinerConfig(), (0.5, 8, [], False)),
    (Template(5, ["a"]), (5, ["a"], 1)),
    (MinerStats(), (1, 0, 0, 0, 0)),
    (MessageCost(), (0, 0, 0)),
], ids=["MinerConfig", "Template", "MinerStats", "MessageCost"])
def test_a_field_left_out_takes_its_default(record, values):
    assert fields(record) == values


def test_a_parse_result_has_no_defaults():
    with pytest.raises(TypeError):
        ParseResult(4, "open <*>", ["a.txt"])


def test_left_out_mask_rules_are_a_new_list_and_none_is_refused():
    a, b = MinerConfig(), MinerConfig()
    assert a.mask_rules == [] and a.mask_rules is not b.mask_rules
    with pytest.raises(ConfigError):
        MinerConfig(mask_rules=None)
    rules = ("a+",)
    assert MinerConfig(mask_rules=rules).mask_rules is rules


@each_record
def test_records_compare_field_by_field_with_their_own_class_only(cls):
    _, values, other, _ = RECORDS[cls]
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*other) and not record == cls(*other)
    assert record != values and not record == values
    assert record.__eq__(values) is NotImplemented
    subclass = type("Sub", (cls,), {})
    assert record != subclass(*values)


def test_template_equality_and_repr_leave_out_its_caches():
    fresh, rendered = Template(1, ["a", "<*>"]), Template(1, ["a", "<*>"])
    assert rendered.render() == "a <*>"
    assert fresh == rendered and repr(fresh) == repr(rendered)


@each_record
def test_records_are_unhashable(cls):
    record = cls(*RECORDS[cls][1])
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(record)


@each_record
def test_repr_is_the_dataclass_repr(cls):
    assert repr(cls(*RECORDS[cls][1])) == RECORDS[cls][3]


@each_record
def test_match_args_destructure_a_record(cls):
    values = RECORDS[cls][1]
    match cls(*values):
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail(f"{cls.__name__}(first) matched no record")


@pytest.mark.parametrize("cls", [Template, ParseResult],
                         ids=lambda cls: cls.__name__)
def test_slotted_records_have_no_dict(cls):
    record = cls(*RECORDS[cls][1])
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.note = "x"
