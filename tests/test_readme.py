"""The README's contract lists, held to the code they state: the config
keys, the exit codes, the output headers and the flag errors."""

import dataclasses
import re
from pathlib import Path

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
