"""Source-structure contracts: raw text reaches the encoder through one path,
multiple-choice questions and link-prediction queries are each scored through
one function, each pipeline stage runs from its CLI command alone, and every
tab-separated input is split by one reader."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dragonforge"


def called_name(call: ast.Call) -> str | None:
    """The name a call calls, plain (`f(...)`) or as an attribute (`m.f(...)`)."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def functions_where(match) -> set[str]:
    """`module:Qualified.function` of every function in src whose body holds
    a node that `match` accepts (`module:` for module-level code)."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if match(child):
                found.add("%s:%s" % (module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def callers(name: str) -> set[str]:
    """Every function in src whose body calls `name`, as a plain name or as
    an attribute."""
    return functions_where(lambda node: isinstance(node, ast.Call) and called_name(node) == name)


@pytest.mark.parametrize("name, caller", [
    ("build_alias_index", "retrieval:Retriever.__init__"),
    ("link_entities", "retrieval:Retriever.inputs"),
    ("retrieve_local_kg", "retrieval:Retriever.inputs"),
    ("verbalize_kg", "retrieval:Retriever.inputs"),
    ("prepare_examples", "pretrain:train"),
    ("prepare_choice_inputs", "finetune:memoized_choice_inputs"),
])
def test_input_preparation_has_one_caller(name, caller):
    assert callers(name) == {caller}


@pytest.mark.parametrize("name", ["encode_batch", "pool"])
def test_multiple_choice_scoring_has_one_path(name):
    # training and evaluation both encode and pool choices in choice_logits
    assert {c for c in callers(name) if c.startswith("finetune:")} == {"finetune:choice_logits"}


@pytest.mark.parametrize("name, caller", [
    ("encode_batch", "evaluation:ContextualScorer.score"),
    ("encode", "evaluation:dump_attention"),
])
def test_link_prediction_has_one_encode_path(name, caller):
    # link-prediction queries are encoded in batches; only the attention
    # export encodes a single example
    assert {c for c in callers(name) if c.startswith("evaluation:")} == {caller}


@pytest.mark.parametrize("name, expected", [
    ("tail_query", {"pretrain:hold_out_edges", "evaluation:eval_link_prediction"}),
    ("query_scores", {"pretrain:linkpred_loss", "evaluation:ContextualScorer.score"}),
    ("triplet_scores", {"pretrain:query_scores"}),
])
def test_link_prediction_queries_are_built_and_scored_in_one_place(name, expected):
    # pretraining and eval-lp build the same tail query and score it through
    # one function, which alone scores triplets
    assert callers(name) == expected


@pytest.mark.parametrize("name, caller", [
    ("train", "cli:_cmd_pretrain"),
    ("finetune_mcqa", "cli:_cmd_finetune"),
    ("eval_link_prediction", "cli:_cmd_eval_lp"),
])
def test_each_pipeline_stage_runs_from_its_command_only(name, caller):
    # the ablation runs these stages through the commands, not beside them
    assert callers(name) == {caller}


def test_question_files_are_scored_by_finetune_dev_and_eval_qa_only():
    # finetune's dev loop and eval-qa share one scorer; the ablation scores
    # its test questions with eval-qa
    assert callers("evaluate_mcqa") == {"finetune:finetune_mcqa", "cli:_cmd_eval_qa"}


def test_affine_layers_use_the_linear_op():
    # x @ w + b is one taped op, nm.linear; a matmul-then-add pair records two
    # ops and copies the product's gradient
    pairs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and getattr(node.args[0].func, "attr", None) == "matmul"):
                pairs.append("%s:%d" % (path.stem, node.lineno))
    assert pairs == []


def test_retrieval_streams_are_built_lazily():
    # inputs and retrieve_local_kg take a stream factory and build the stream
    # only when pruning samples; a split_rng(...) argument would build it on
    # every retrieval
    eager = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and called_name(node) in ("inputs", "retrieve_local_kg")
                    and any(isinstance(arg, ast.Call) and called_name(arg) == "split_rng"
                            for arg in node.args + [kw.value for kw in node.keywords])):
                eager.append("%s:%d" % (path.stem, node.lineno))
    assert eager == []


def test_token_pattern_is_read_by_tokenize_and_the_hard_split_only():
    # text becomes tokens through tokenize; segment_corpus also needs the
    # token spans to hard-split an over-long sentence
    readers = functions_where(lambda node: isinstance(node, ast.Name) and node.id == "_TOKEN_RE"
                              and isinstance(node.ctx, ast.Load))
    assert readers == {"retrieval:tokenize", "retrieval:segment_corpus"}


def test_row_scatters_go_through_rows_at():
    # ufunc.at on 2-D rows is several times slower than _rows_at's flat form
    assert functions_where(lambda node: isinstance(node, ast.Call)
                           and getattr(node.func, "attr", None) == "at") == {"numerics:_rows_at"}


def test_input_files_are_read_by_the_one_text_reader():
    # every file the library reads goes through kg_store.read_text, which
    # names the file and line of a byte that is not UTF-8; only a checkpoint,
    # a binary file, has its own reader
    def opens_to_read(node) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            return False
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax"))

    assert functions_where(opens_to_read) == {"kg_store:read_text", "pretrain:load_checkpoint"}


def test_tab_separated_text_is_split_by_read_tsv_only():
    # the KG and alias files and a checkpoint's name tables are all read by
    # kg_store.read_tsv, which splits in bulk and alone names a bad line
    def splits_on_a_tab(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("split", "rsplit", "partition", "rpartition")
                and any(isinstance(arg, ast.Constant) and arg.value == "\t" for arg in node.args))

    assert functions_where(splits_on_a_tab) == {"kg_store:read_tsv"}


def test_objective_names_are_compared_in_pretrain_config_only():
    # which objective trains which loss is stated once, by PretrainConfig's
    # trains_mlm and trains_lp; pretraining, eval-lp and the ablation read them
    def compares_an_objective(node) -> bool:
        return isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Constant) and n.value in ("joint", "mlm_only", "linkpred_only")
            for operand in [node.left, *node.comparators] for n in ast.walk(operand))

    assert functions_where(compares_an_objective) == {"pretrain:PretrainConfig.__post_init__",
                                                      "pretrain:PretrainConfig.trains_mlm",
                                                      "pretrain:PretrainConfig.trains_lp"}
