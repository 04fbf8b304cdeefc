"""The README's library example runs as written, and its field table lists every field."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "no python block under 'Library example'"
    exec(compile(blocks[0], f"{README}:library-example", "exec"), {})


def test_readme_field_table_lists_every_command_field():
    """Each row lists exactly the fields its command reads: none missing, none extra."""
    from lacuna.cli import _COMMANDS, _SHARED

    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and len(cells) == 2:
            rows[cells[0].strip("`")] = cells[1]
    for command, fields in [("every command", _SHARED), *_COMMANDS.items()]:
        for field in fields:
            assert f"`{field}` (" in rows[command], f"{command}: {field} missing from the table"
        for name in re.findall(r"`([^`]+)` \(", rows[command]):
            assert name in fields, f"{command}: {name} is in the table but not read"
