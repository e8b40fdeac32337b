"""Which program functions are wrapped, and the per-layer metrics read from their spans.

Layers are the program's modules: numerics, encoder, pretrain, finetune,
retrieval, kg_store, evaluation and cli. Every hook names the function it
wraps; a later change that removes one is reported by `Installed.missing`
and its metric is left out of the result.
"""

from __future__ import annotations

from spans import (END, INFO, NAME, OK, PARENT, ROLE, START, STRUCTURAL, Hook, children_of,
                   self_time)

PKG = "dragonforge"


def _encode_shape(args, out) -> dict:
    seg, local = args[0], args[1]
    return {"tokens": seg.length, "nodes": 0 if local.is_dummy else local.n_nodes - 1,
            "edges": len(local.edges), "dummy": bool(local.is_dummy)}


def _flagged_empty(args, result) -> dict:
    return {"empty": bool(result[1].flagged_empty)}


def _tape_ops(args, result) -> dict:
    return {"tape_ops": len(args[0].records)}


def _h(target: str, name: str, **kw) -> Hook:
    return Hook(PKG + "." + target, name, **kw)


HOOKS = [
    # unit boundaries and loop functions: installed in untraced runs too
    _h("numerics:ComputationTape.__enter__", "step", role="marker", opens="step"),
    _h("pretrain:Optimizer.zero_grad", "pretrain.zero_grad", closes="step"),
    _h("pretrain:train", "pretrain.train", role="container"),
    _h("finetune:finetune_mcqa", "finetune.finetune_mcqa", role="container"),
    _h("finetune:evaluate_mcqa", "finetune.evaluate_mcqa", role="container"),
    _h("evaluation:eval_link_prediction", "evaluation.eval_link_prediction", role="container"),
    _h("finetune:prepare_choice_inputs", "finetune.prepare_choice_inputs",
       opens="question", opens_under="finetune.evaluate_mcqa"),
    _h("finetune:choice_logits", "finetune.choice_logits", closes="question"),
    _h("retrieval:link_entities", "retrieval.link_entities",
       opens="query", opens_under="evaluation.eval_link_prediction"),
    _h("evaluation:ContextualScorer.score", "evaluation.score", closes="query"),
    # layer spans: traced runs only; the two probe points give untraced runs
    # machine-speed probes inside long steps
    _h("numerics:ComputationTape.backward", "numerics.backward", observe=_tape_ops, probe=True),
    _h("encoder:encode", "encoder.encode", observe=_encode_shape, probe=True),
    _h("encoder:_transformer_layer", "encoder.transformer"),
    _h("encoder:_gnn_layer", "encoder.gnn"),
    _h("encoder:_mint", "encoder.mint"),
    _h("encoder:init_params", "encoder.init_params"),
    _h("pretrain:prepare_examples", "pretrain.prepare_examples"),
    _h("pretrain:add_pretrain_heads", "pretrain.add_pretrain_heads"),
    _h("pretrain:apply_masking", "pretrain.apply_masking", observe=_flagged_empty),
    _h("pretrain:hold_out_edges", "pretrain.hold_out_edges", observe=_flagged_empty),
    _h("pretrain:mlm_loss", "pretrain.mlm_loss"),
    _h("pretrain:linkpred_loss", "pretrain.linkpred_loss"),
    _h("pretrain:clip_gradients", "pretrain.clip_gradients"),
    _h("pretrain:Optimizer.step", "pretrain.optimizer_step"),
    _h("pretrain:save_checkpoint", "pretrain.save_checkpoint"),
    _h("pretrain:load_checkpoint", "pretrain.load_checkpoint"),
    _h("finetune:load_mcqa", "finetune.load_mcqa"),
    _h("finetune:add_pooling_head", "finetune.add_pooling_head"),
    _h("finetune:pool", "finetune.pool"),
    _h("retrieval:retrieve_local_kg", "retrieval.retrieve_local_kg"),
    _h("retrieval:build_vocab", "retrieval.build_vocab"),
    _h("retrieval:segment_corpus", "retrieval.segment_corpus"),
    _h("retrieval:verbalize_kg", "retrieval.verbalize_kg"),
    _h("kg_store:load_kg", "kg_store.load_kg"),
]

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "numerics.backward_ms_per_step": "ms",
    "numerics.tape_ops_per_step": "count",
    "encoder.encode_ms_per_example": "ms",
    "encoder.transformer_ms_per_step": "ms",
    "encoder.gnn_ms_per_step": "ms",
    "encoder.mint_ms_per_step": "ms",
    "encoder.tokens_per_example": "count",
    "encoder.nodes_per_example": "count",
    "encoder.edges_per_example": "count",
    "encoder.calls_per_question": "count",
    "pretrain.hold_out_edges_ms_per_step": "ms",
    "pretrain.linkpred_loss_ms_per_step": "ms",
    "pretrain.mlm_loss_ms_per_step": "ms",
    "pretrain.optimizer_ms_per_step": "ms",
    "pretrain.mask_empty_frac": "ratio",
    "pretrain.holdout_empty_frac": "ratio",
    "pretrain.prepare_examples_s": "s",
    "pretrain.load_checkpoint_s": "s",
    "pretrain.save_checkpoint_s": "s",
    "kg_store.load_kg_s": "s",
    "retrieval.link_entities_ms_per_call": "ms",
    "retrieval.retrieve_local_kg_ms_per_call": "ms",
    "retrieval.calls_per_question": "count",
    "retrieval.dummy_graph_frac": "ratio",
    "finetune.prepare_choice_inputs_ms_per_question": "ms",
    "finetune.pool_ms_per_question": "ms",
    "finetune.dev_eval_s": "s",
    "evaluation.score_ms_per_query": "ms",
    "evaluation.lp_skip_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

# metrics that read a hook's spans; left out when the hook is missing
_NEEDS = {
    "numerics.backward_ms_per_step": "numerics.backward",
    "numerics.tape_ops_per_step": "numerics.backward",
    "encoder.encode_ms_per_example": "encoder.encode",
    "encoder.transformer_ms_per_step": "encoder.transformer",
    "encoder.gnn_ms_per_step": "encoder.gnn",
    "encoder.mint_ms_per_step": "encoder.mint",
    "encoder.tokens_per_example": "encoder.encode",
    "encoder.nodes_per_example": "encoder.encode",
    "encoder.edges_per_example": "encoder.encode",
    "encoder.calls_per_question": "encoder.encode",
    "pretrain.hold_out_edges_ms_per_step": "pretrain.hold_out_edges",
    "pretrain.linkpred_loss_ms_per_step": "pretrain.linkpred_loss",
    "pretrain.mlm_loss_ms_per_step": "pretrain.mlm_loss",
    "pretrain.optimizer_ms_per_step": "pretrain.optimizer_step",
    "pretrain.mask_empty_frac": "pretrain.apply_masking",
    "pretrain.holdout_empty_frac": "pretrain.hold_out_edges",
    "pretrain.prepare_examples_s": "pretrain.prepare_examples",
    "pretrain.load_checkpoint_s": "pretrain.load_checkpoint",
    "pretrain.save_checkpoint_s": "pretrain.save_checkpoint",
    "kg_store.load_kg_s": "kg_store.load_kg",
    "retrieval.link_entities_ms_per_call": "retrieval.link_entities",
    "retrieval.retrieve_local_kg_ms_per_call": "retrieval.retrieve_local_kg",
    "retrieval.calls_per_question": "retrieval.link_entities",
    "retrieval.dummy_graph_frac": "encoder.encode",
    "finetune.prepare_choice_inputs_ms_per_question": "finetune.prepare_choice_inputs",
    "finetune.pool_ms_per_question": "finetune.pool",
    "finetune.dev_eval_s": "finetune.evaluate_mcqa",
    "evaluation.score_ms_per_query": "evaluation.score",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], missing_targets: list[str], lp_skip_frac: float) -> dict:
    """Per-layer metrics over every span of the traced commands.

    "Per step" divides by training steps (pretrain or finetune) and counts
    only time spent inside them; eval phases have no steps.
    """
    missing = {h.name for h in HOOKS if h.target in missing_targets}
    in_step = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        in_step[i] = (s[ROLE] == "unit" and s[NAME] == "step") or (p >= 0 and in_step[p])
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[END] is not None:
            by_name.setdefault(s[NAME], []).append(i)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def calls(name: str) -> list[int]:
        return by_name.get(name, [])

    steps = [i for i in calls("step") if spans[i][OK]]
    n_steps = len(steps)

    def ms_per_step(*names: str) -> float:
        total = sum(dur(i) for n in names for i in calls(n) if in_step[i])
        return _ratio(1000.0 * total, n_steps)

    def mean_s(name: str) -> float:
        return _ratio(sum(dur(i) for i in calls(name)), len(calls(name)))

    def info_total(name: str, key: str) -> float:
        return sum(spans[i][INFO][key] for i in calls(name) if spans[i][INFO])

    encodes = calls("encoder.encode")
    questions = len(calls("finetune.prepare_choice_inputs"))
    question_cmds = {i for i in range(len(spans)) if spans[i][ROLE] == "command"
                     and spans[i][NAME] in ("cli.finetune", "cli.eval-qa")}

    def in_question_cmd(i: int) -> bool:
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
        return i in question_cmds

    retrieval_calls = sum(1 for n in ("retrieval.link_entities", "retrieval.retrieve_local_kg")
                          for i in calls(n) if in_question_cmd(i))
    encode_in_questions = sum(1 for i in encodes if in_question_cmd(i))
    dev_evals = [i for i in calls("finetune.evaluate_mcqa")
                 if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "finetune.finetune_mcqa"]

    out = {
        "numerics.backward_ms_per_step": ms_per_step("numerics.backward"),
        "numerics.tape_ops_per_step": _ratio(info_total("numerics.backward", "tape_ops"), n_steps),
        "encoder.encode_ms_per_example": 1000.0 * mean_s("encoder.encode"),
        "encoder.transformer_ms_per_step": ms_per_step("encoder.transformer"),
        "encoder.gnn_ms_per_step": ms_per_step("encoder.gnn"),
        "encoder.mint_ms_per_step": ms_per_step("encoder.mint"),
        "encoder.tokens_per_example": _ratio(info_total("encoder.encode", "tokens"), len(encodes)),
        "encoder.nodes_per_example": _ratio(info_total("encoder.encode", "nodes"), len(encodes)),
        "encoder.edges_per_example": _ratio(info_total("encoder.encode", "edges"), len(encodes)),
        "encoder.calls_per_question": _ratio(encode_in_questions, questions),
        "pretrain.hold_out_edges_ms_per_step": ms_per_step("pretrain.hold_out_edges"),
        "pretrain.linkpred_loss_ms_per_step": ms_per_step("pretrain.linkpred_loss"),
        "pretrain.mlm_loss_ms_per_step": ms_per_step("pretrain.mlm_loss"),
        "pretrain.optimizer_ms_per_step": ms_per_step("pretrain.optimizer_step",
                                                      "pretrain.clip_gradients"),
        "pretrain.mask_empty_frac": _ratio(info_total("pretrain.apply_masking", "empty"),
                                           len(calls("pretrain.apply_masking"))),
        "pretrain.holdout_empty_frac": _ratio(info_total("pretrain.hold_out_edges", "empty"),
                                              len(calls("pretrain.hold_out_edges"))),
        "pretrain.prepare_examples_s": mean_s("pretrain.prepare_examples"),
        "pretrain.load_checkpoint_s": mean_s("pretrain.load_checkpoint"),
        "pretrain.save_checkpoint_s": mean_s("pretrain.save_checkpoint"),
        "kg_store.load_kg_s": mean_s("kg_store.load_kg"),
        "retrieval.link_entities_ms_per_call": 1000.0 * mean_s("retrieval.link_entities"),
        "retrieval.retrieve_local_kg_ms_per_call": 1000.0 * mean_s("retrieval.retrieve_local_kg"),
        "retrieval.calls_per_question": _ratio(retrieval_calls, questions),
        "retrieval.dummy_graph_frac": _ratio(info_total("encoder.encode", "dummy"), len(encodes)),
        "finetune.prepare_choice_inputs_ms_per_question":
            1000.0 * mean_s("finetune.prepare_choice_inputs"),
        "finetune.pool_ms_per_question": _ratio(
            1000.0 * sum(dur(i) for i in calls("finetune.pool")), questions),
        "finetune.dev_eval_s": _ratio(sum(dur(i) for i in dev_evals),
                                      len(calls("finetune.finetune_mcqa"))),
        "evaluation.score_ms_per_query": 1000.0 * mean_s("evaluation.score"),
        "evaluation.lp_skip_frac": lp_skip_frac,
        "trace.unattributed_frac": unattributed_frac(spans),
    }
    return {k: v for k, v in out.items() if _NEEDS.get(k) not in missing}


def unattributed_frac(spans: list[list]) -> float:
    """Share of command wall time that no layer span covers.

    Commands, loop functions and units are structure, not work: their self
    time is what the layer spans below them leave uncovered.
    """
    children = children_of(spans)
    total = sum(s[END] - s[START] for s in spans if s[ROLE] == "command")
    uncovered = sum(self_time(spans, i, children) for i, s in enumerate(spans)
                    if s[ROLE] in STRUCTURAL)
    return _ratio(uncovered, total)
