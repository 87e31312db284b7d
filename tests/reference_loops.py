"""The per-row loops that the stacked loss, EMA update and mining replaced.

Kept as bitwise references: each runs one matrix-vector product per batch
entry or source row, the arithmetic the array paths must reproduce to the
last bit.
"""

import numpy as np

from hitpro.datamodel import PositiveKind
from hitpro.mining import MiningRow, rho_schedule, soft_weights
from hitpro.numerics import l2_normalize, log_softmax, stable_softmax


def loop_alignment_loss(batch, store, positive_sets, loss_temp):
    """One weighted alignment term over one batch: ``(value, grads)``."""
    total = 0.0
    grads = []
    inv_b = 1.0 / len(batch)
    for q, source_id in batch:
        grad = np.zeros_like(q)
        if positive_sets is None:
            entries = ((source_id, 1.0),)
        else:
            wps = positive_sets.get(source_id)
            entries = wps.entries if wps is not None else ()
        for target_id, weight in entries:
            modality, cam, pos = store.locate(target_id)
            mat = store.matrix(modality, cam)
            logits = (mat @ q) / loss_temp
            total += -weight * float(log_softmax(logits)[pos]) * inv_b
            probs = stable_softmax(logits)
            grad += weight * (probs @ mat - mat[pos]) / loss_temp * inv_b
        grads.append(grad)
    return total, grads


def loop_total_loss(epoch, vis_batch, ir_batch, store, intra_sets, cross_sets, cfg):
    """``(l_ic, l_imcc, l_cm, l_total, grads)`` summed term by term, batch by batch."""
    active_imcc = cfg.use_imcc and (not cfg.use_hls or epoch >= cfg.intra_start_epoch)
    active_cm = cfg.use_cm and (not cfg.use_hls or epoch >= cfg.cross_start_epoch)
    batches = [b for b in (vis_batch, ir_batch) if b]
    values = []
    grads = []
    for positive_sets, active in ((None, True), (intra_sets, active_imcc), (cross_sets, active_cm)):
        value = 0.0
        if active:
            term_grads = []
            for batch in batches:
                v, g = loop_alignment_loss(batch, store, positive_sets, cfg.loss_temp)
                value += v
                term_grads.extend(g)
            grads = [a + b for a, b in zip(grads, term_grads)] if grads else term_grads
        values.append(value)
    l_ic, l_imcc, l_cm = values
    return l_ic, l_imcc, l_cm, l_ic + l_imcc + l_cm, grads


def loop_ema_update(store, batch, intra_sets, cross_sets, momentum):
    """Every blend applied one prototype row at a time, in batch order."""
    for q, source_id in batch:
        targets = [source_id]
        for sets in (intra_sets, cross_sets):
            wps = sets.get(source_id)
            if wps is not None:
                targets.extend(wps.target_ids)
        for tid in targets:
            modality, cam, row = store.locate(tid)
            mat = store.matrix(modality, cam)
            mat[row] = l2_normalize((1.0 - momentum) * mat[row] + momentum * q)


def loop_mining_rows(store, source_modality, kind, epoch, cfg):
    """One ``MiningRow`` per source prototype, in store order."""
    rows = []
    rho = rho_schedule(epoch, cfg)
    target_modality = (
        source_modality if kind is PositiveKind.INTRA_MODAL else source_modality.other
    )
    targets = []
    for cam in store.cameras(target_modality):
        mat = store.matrix(target_modality, cam)
        targets.append((cam, store.ids(target_modality, cam), mat, np.linalg.norm(mat, axis=1)))
    for source_camera in store.cameras(source_modality):
        source_ids = store.ids(source_modality, source_camera)
        for source_id, src in zip(source_ids, store.matrix(source_modality, source_camera)):
            src_norm = float(np.linalg.norm(src))
            candidates = []
            for cam, ids, mat, norms in targets:
                if kind is PositiveKind.INTRA_MODAL and cam == source_camera:
                    continue
                sims = (mat @ src) / (norms * src_norm)
                best = int(np.argmax(sims))
                candidates.append((cam, ids[best], float(sims[best])))
            rows.append(_loop_mining_row(source_id, candidates, rho, cfg))
    return rows


def _loop_mining_row(source_id, candidates, rho, cfg):
    if not candidates:
        return MiningRow(source=source_id, s_max=None, threshold=None,
                         candidates=[], accepted=[])
    s_max = max(sim for _, _, sim in candidates)
    if cfg.use_dts:
        threshold = rho * s_max
        if s_max > 0.0:
            survivors = [(tid, sim) for _, tid, sim in candidates if sim >= threshold]
        else:
            survivors = []
    else:
        threshold = cfg.fixed_threshold
        survivors = [(tid, sim) for _, tid, sim in candidates if sim >= threshold]
    accepted = []
    if survivors:
        if cfg.use_swa:
            weights = soft_weights([sim for _, sim in survivors], cfg.weight_temp)
        else:
            weights = np.full(len(survivors), 1.0 / len(survivors))
        accepted = [(tid, sim, float(w)) for (tid, sim), w in zip(survivors, weights)]
    return MiningRow(source=source_id, s_max=s_max, threshold=threshold,
                     candidates=candidates, accepted=accepted)


def loop_mining_quality(rows, gt):
    """Precision and recall of one family's rows, counted row by row."""
    n_accepted = n_accepted_correct = n_true_accepted = n_true_candidates = 0
    for row in rows:
        src_id = gt[row.source]
        accepted_targets = {tid for tid, _, _ in row.accepted}
        n_accepted += len(row.accepted)
        n_accepted_correct += sum(1 for tid in accepted_targets if gt[tid] == src_id)
        for _, target, _ in row.candidates:
            if gt[target] == src_id:
                n_true_candidates += 1
                if target in accepted_targets:
                    n_true_accepted += 1
    precision = n_accepted_correct / n_accepted if n_accepted else None
    recall = n_true_accepted / n_true_candidates if n_true_candidates else 0.0
    return precision, recall
