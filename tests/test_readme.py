"""The README's contract lists, held to the code they state: the config
keys, the exit codes, the output headers, the flag errors and the package's
top-level names."""

import dataclasses
import re
from pathlib import Path

import shinerswarm
from shinerswarm import RunConfig, cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def exit_codes_sentence(text: str) -> str:
    """The "Exit codes: ..." sentence of text, its whitespace folded."""
    match = re.search(r"Exit codes:[^.]*\.", " ".join(text.split()))
    assert match, "no 'Exit codes:' sentence"
    return match.group()


def test_readme_config_keys_are_the_run_config_fields():
    match = re.search(r"Keys:\s*`([^`]*)`", README)
    assert match, "no 'Keys:' list"
    keys = [key.strip() for key in match.group(1).split(",")]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


def test_readme_exit_codes_are_the_cli_ones():
    sentence = exit_codes_sentence(README)
    assert sentence == exit_codes_sentence(cli.__doc__)
    codes = [int(code) for code in re.findall(r"(\d+) [A-Za-z]", sentence)]
    assert sorted(codes) == sorted(value for name, value in vars(cli).items()
                                   if name.startswith("EXIT_"))


def test_readme_quotes_every_output_header():
    for header in (cli.SNAPSHOT_HEADER, cli.METRICS_HEADER,
                   cli.DENSITY_HEADER):
        assert f"`{header}`" in README


def test_readme_flag_errors_are_what_the_commands_print(tmp_path,
                                                        monkeypatch, capsys):
    # each quoted simulate or density command that README says "gives" an
    # error naming a flag or a key prints that line, whitespace folded
    examples = re.findall(
        r"`((?:simulate|density) [^`]*)` gives `(error: (?:--|key )[^`]*)`",
        " ".join(README.split()))
    assert {command.split()[0] for command, _ in examples} == {"simulate",
                                                                "density"}
    monkeypatch.chdir(tmp_path)
    for command, error in examples:
        assert cli.main(command.split()) == 2, command
        assert " ".join(capsys.readouterr().err.split()) == error
    assert not list(tmp_path.iterdir())


def readme_code() -> str:
    """README's code: its fenced blocks and its inline code spans."""
    fence = re.compile(r"^```\w*\n(.*?)^```", re.M | re.S)
    return "\n".join(fence.findall(README)
                     + re.findall(r"`([^`]+)`", fence.sub("", README)))


def test_the_top_level_is_the_names_readme_uses():
    # each top-level name is written in README's code, not as a module's
    # attribute such as `core.hammer`; README imports no other name from
    # the package, and the package holds no other public attribute than
    # its submodules
    code = readme_code()
    top = shinerswarm.__all__
    assert [name for name in top
            if not re.search(rf"(?<![\w.]){name}\b", code)] == []
    imported = {name for names in re.findall(
        r"from shinerswarm import (\([^)]*\)|.*)", code)
        for name in re.findall(r"\w+", names)}
    assert imported and imported <= set(top)
    public = [name for name, value in vars(shinerswarm).items()
              if not name.startswith("_")
              and getattr(value, "__name__", None) != f"shinerswarm.{name}"]
    assert sorted(public) == sorted(top)
