"""The per-row loops that the stacked loss, EMA update and mining replaced,
the training loop that re-sampled and re-stacked frames every iteration, the
frame-by-frame dataset generator, the per-query retrieval ranking, the
dict-per-row ``mining_report.json`` payload and the entry-by-entry manifest
reader.

Kept as bitwise references: each runs one matrix-vector product per batch
entry or source row, the arithmetic the array paths must reproduce to the
last bit; the payload is the text the ``hitpro mine`` writer must reproduce
byte for byte, and the manifest reader the entries and error texts that
``read_manifest``'s columns must reproduce.
"""

import json
from pathlib import Path

import numpy as np

from hitpro.datamodel import (
    Dataset, DatasetError, ManifestEntry, Modality, PositiveKind, Prototype, PrototypeStore,
    Tracklet,
)
from hitpro.encoder import encode, encode_backward, encoder_init, select_frames
from hitpro.evaluator import dataset_labels, mining_quality
from hitpro.mining import MiningRow, build_mining_report, rho_schedule, soft_weights
from hitpro.numerics import l2_normalize, log_softmax, stable_softmax
from hitpro.prototyping import partition_tracklet
from hitpro.synthgen import _modality_map, _reflect, _tracklet_rng
from hitpro.trainer import OptState, sgd_step


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


def loop_mining_json(report):
    """One family's ``mining_report.json`` entry (less precision and recall)
    as plain dicts: one per row, candidate and accepted pair."""
    return {
        "source_modality": report.source_modality.value,
        "kind": report.kind.value,
        "epoch": report.epoch,
        "mean_positive_set_size": report.mean_positive_set_size,
        "rows": [
            {
                "source": r.source,
                "s_max": r.s_max,
                "threshold": r.threshold,
                "candidates": [
                    {"camera": c, "target": t, "sim": s} for c, t, s in r.candidates
                ],
                "accepted": [
                    {"target": t, "sim": s, "weight": w} for t, s, w in r.accepted
                ],
            }
            for r in report.rows
        ],
    }


def loop_mining_payload(store, epoch, cfg, gt):
    """The whole ``mining_report.json`` payload of ``hitpro mine``, built as
    plain dicts."""
    payload = {"epoch": epoch}
    for modality in (Modality.VIS, Modality.IR):
        for kind in (PositiveKind.INTRA_MODAL, PositiveKind.CROSS_MODAL):
            report = build_mining_report(store, modality, kind, epoch, cfg)
            entry = loop_mining_json(report)
            if gt is not None:
                entry["precision"], entry["recall"] = mining_quality(report, gt)
            payload[f"{modality.value.lower()}_{kind.value.lower()}"] = entry
    return payload


def loop_sample_batch(dataset, modality, partitions, cfg, rng):
    """One batch's ``(sub-tracklet, source id)`` entries, drawn camera by
    camera, tracklet by tracklet."""
    cameras = [
        cam for cam in range(dataset.n_cameras(modality))
        if dataset.group(modality, cam)
    ]
    cam_choice = rng.choice(
        cameras, size=cfg.batch_cameras, replace=len(cameras) < cfg.batch_cameras
    )
    entries = []
    for cam in cam_choice:
        tracklets = dataset.group(modality, int(cam))
        t_idx = rng.choice(
            len(tracklets), size=cfg.batch_tracklets,
            replace=len(tracklets) < cfg.batch_tracklets,
        )
        for ti in t_idx:
            tracklet = tracklets[int(ti)]
            subs = partitions[tracklet.tracklet_id]
            s_idx = rng.choice(
                len(subs), size=cfg.batch_subs, replace=len(subs) < cfg.batch_subs
            )
            for si in s_idx:
                entries.append((subs[int(si)], tracklet.tracklet_id))
    return entries


def loop_tracklet_embedding(params, tracklet, cfg):
    """One 2-D encoder call per sub-tracklet, summed in order."""
    total = np.zeros(cfg.embed_dim)
    subs = partition_tracklet(tracklet, cfg.n_subtracklets)
    for sub in subs:
        total += encode(params, select_frames(sub.slice_frames(tracklet), cfg.seq_len))[0]
    return l2_normalize(total / len(subs))


_FAMILY_KEYS = (
    (Modality.VIS, PositiveKind.INTRA_MODAL, "vis_intra"),
    (Modality.IR, PositiveKind.INTRA_MODAL, "ir_intra"),
    (Modality.VIS, PositiveKind.CROSS_MODAL, "vis_cross"),
    (Modality.IR, PositiveKind.CROSS_MODAL, "ir_cross"),
)


def loop_train(dataset, cfg):
    """``(params, store, epoch records)`` of a training run that partitions
    every tracklet each epoch, samples ``(sub-tracklet, id)`` entries, stacks
    their selected frames each iteration and runs the per-entry loss and EMA
    loops."""
    params = encoder_init(
        d_in=dataset.d_in, embed_dim=cfg.embed_dim, ffn_dim=cfg.ffn_dim,
        pool_hidden_dim=cfg.pool_hidden_dim, n_tte_layers=cfg.n_tte_layers,
        seq_len=cfg.seq_len, seed=cfg.seed,
    )
    opt = OptState(velocity=params.zeros_like(), lr=cfg.lr, momentum=cfg.sgd_momentum)
    gt = dataset_labels(dataset)
    epochs = []
    store = None
    for epoch in range(cfg.total_epochs):
        partitions = {
            t.tracklet_id: partition_tracklet(t, cfg.n_subtracklets) for t in dataset.tracklets
        }
        opt.lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        store = PrototypeStore([
            Prototype(t.tracklet_id, t.modality, t.camera_id,
                      loop_tracklet_embedding(params, t, cfg))
            for t in dataset.tracklets
        ])
        reports = {}
        intra_sets, cross_sets = {}, {}
        for modality, kind, key in _FAMILY_KEYS:
            reports[key] = build_mining_report(store, modality, kind, epoch, cfg)
            dest = intra_sets if kind is PositiveKind.INTRA_MODAL else cross_sets
            for wps in reports[key].positive_sets():
                dest[wps.source] = wps

        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2, epoch)))
        sums = {"l_ic": 0.0, "l_imcc": 0.0, "l_cm": 0.0, "l_total": 0.0}
        for _ in range(cfg.iters_per_epoch):
            vis = loop_sample_batch(dataset, Modality.VIS, partitions, cfg, rng)
            ir = loop_sample_batch(dataset, Modality.IR, partitions, cfg, rng)
            entries = vis + ir
            embeddings, cache = encode(params, np.stack([
                select_frames(sub.slice_frames(dataset.get(source_id)), cfg.seq_len)
                for sub, source_id in entries
            ]))
            items = [(emb, source_id) for emb, (_, source_id) in zip(embeddings, entries)]
            *values, grads = loop_total_loss(
                epoch, items[: len(vis)], items[len(vis):], store, intra_sets, cross_sets, cfg
            )
            sgd_step(params, encode_backward(params, cache, np.stack(grads)), opt)
            loop_ema_update(store, items, intra_sets, cross_sets, cfg.ema_momentum)
            for key, value in zip(("l_ic", "l_imcc", "l_cm", "l_total"), values):
                sums[key] += value

        n_it = max(cfg.iters_per_epoch, 1)
        record = {
            "epoch": epoch,
            "lr": opt.lr,
            "rho": rho_schedule(epoch, cfg),
            **{f"mean_{key}": value / n_it for key, value in sums.items()},
            "positive_set_sizes": {
                key: reports[key].mean_positive_set_size for _, _, key in _FAMILY_KEYS
            },
        }
        if gt is not None:
            record["mining"] = {}
            for _, _, key in _FAMILY_KEYS:
                precision, recall = mining_quality(reports[key], gt)
                record["mining"][key] = {"precision": precision, "recall": recall}
        epochs.append(record)
    return params, store, epochs


def loop_generate_dataset(cfg):
    """The dataset of a generator that walks one tracklet at a time, frame by
    frame: one latent step draw and one matrix-vector product per frame."""
    global_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))

    latents = global_rng.normal(size=(cfg.n_identities, cfg.d_latent))
    offsets = {}
    for modality, n_cams in ((Modality.VIS, cfg.cams_vis), (Modality.IR, cfg.cams_ir)):
        for cam in range(n_cams):
            offsets[(modality, cam)] = (
                cfg.camera_offset_scale * global_rng.normal(size=cfg.d_latent)
            )
    maps = {
        Modality.VIS: _modality_map(cfg, global_rng),
        Modality.IR: _modality_map(cfg, global_rng),
    }

    bound = 3.0 * cfg.walk_step
    tracklets = []
    index = 0
    for identity in range(cfg.n_identities):
        for modality, n_cams in ((Modality.VIS, cfg.cams_vis), (Modality.IR, cfg.cams_ir)):
            for cam in range(n_cams):
                for rep in range(cfg.tracklets_per_identity_per_camera):
                    rng = _tracklet_rng(cfg, index)
                    index += 1
                    length = int(rng.integers(cfg.frame_len_min, cfg.frame_len_max + 1))
                    center = latents[identity] + offsets[(modality, cam)]
                    walk = np.zeros(cfg.d_latent)
                    frames = np.empty((length, cfg.d_in))
                    for t in range(length):
                        walk = _reflect(
                            walk + cfg.walk_step * rng.normal(size=cfg.d_latent), bound
                        )
                        frames[t] = maps[modality] @ (center + walk)
                    frames += cfg.frame_noise * rng.normal(size=(length, cfg.d_in))
                    tracklets.append(Tracklet(
                        tracklet_id=f"{modality.value.lower()}_c{cam}_i{identity:04d}_r{rep}",
                        modality=modality,
                        camera_id=cam,
                        frames=frames.astype("<f4"),
                        gt_identity=identity,
                    ))
    return Dataset(d_in=cfg.d_in, n_cameras_vis=cfg.cams_vis, n_cameras_ir=cfg.cams_ir,
                   tracklets=tuple(tracklets))


def loop_ranking(sims, q_ids, g_ids, max_rank):
    """``(cmc, mean_ap)`` from one stable ``argsort`` and ``cumsum`` per query
    row of the ``(n_query, n_gallery)`` similarity matrix."""
    cmc_hits = np.zeros(max_rank)
    aps = []
    for qi in range(len(q_ids)):
        order = np.argsort(-sims[qi], kind="stable")
        matches = (g_ids[order] == q_ids[qi])
        first = int(np.argmax(matches))
        if first < max_rank:
            cmc_hits[first:] += 1.0
        rel_cum = np.cumsum(matches)
        ranks = np.nonzero(matches)[0] + 1
        aps.append(float(np.mean(rel_cum[ranks - 1] / ranks)))
    return cmc_hits / len(q_ids), float(np.mean(aps))


def _loop_int(value, what, minimum=None):
    """A JSON integer of the manifest, within ``minimum`` (else int64's
    least value) and below 2**63."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetError(f"{what} must be an integer, got {value!r}")
    least = -2**63 if minimum is None else minimum
    if value < least:
        raise DatasetError(f"{what} must be at least {least}, got {value}")
    if value >= 2**63:
        raise DatasetError(f"{what} must be below 2**63, got {value}")
    return value


def loop_read_manifest(manifest_path):
    """``(d_in, n_cameras_vis, n_cameras_ir, entries, payload)`` of a
    manifest read one entry at a time: each entry's fields checked in turn
    into one ``ManifestEntry``, the running ``offset`` summed in Python
    ints, then ids and camera ranges entry by entry."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"malformed manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"manifest {manifest_path} is not a JSON object")
    for key in ("d_in", "n_cameras_vis", "n_cameras_ir", "tracklets"):
        if key not in manifest:
            raise DatasetError(f"manifest missing required key {key!r}")
    if not isinstance(manifest["tracklets"], list):
        raise DatasetError("manifest 'tracklets' is not a list")
    d_in = _loop_int(manifest["d_in"], "d_in", minimum=1)
    n_cameras_vis = _loop_int(manifest["n_cameras_vis"], "n_cameras_vis", 0)
    n_cameras_ir = _loop_int(manifest["n_cameras_ir"], "n_cameras_ir", 0)
    entries = []
    offset = 0
    for i, entry in enumerate(manifest["tracklets"]):
        try:
            tid = entry["tracklet_id"]
            if not isinstance(tid, str):
                raise TypeError(f"tracklet_id must be a string, got {tid!r}")
            n_frames = _loop_int(entry["n_frames"], f"entry {i} n_frames", minimum=1)
            modality = Modality(entry["modality"])
            camera_id = _loop_int(entry["camera_id"], f"entry {i} camera_id")
            gt_identity = entry.get("gt_identity")
            if gt_identity is not None:
                gt_identity = _loop_int(gt_identity, f"entry {i} gt_identity", 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"manifest entry {i} is malformed: {exc!r}") from exc
        entries.append(ManifestEntry(tid, modality, camera_id, n_frames, offset, gt_identity))
        offset += n_frames
    if offset >= 2**63:
        raise DatasetError(f"manifest implies {offset} frames; frames.f32 "
                           "cannot hold 2**63 or more")
    seen = set()
    for e in entries:
        if e.tracklet_id in seen:
            raise DatasetError(f"duplicate tracklet_id {e.tracklet_id!r}")
        seen.add(e.tracklet_id)
        n_cams = n_cameras_vis if e.modality is Modality.VIS else n_cameras_ir
        if not (0 <= e.camera_id < n_cams):
            raise DatasetError(
                f"tracklet {e.tracklet_id}: camera_id {e.camera_id} out of range "
                f"for {e.modality.value} ({n_cams} cameras)"
            )
    return (d_in, n_cameras_vis, n_cameras_ir, tuple(entries),
            manifest_path.parent / "frames.f32")
