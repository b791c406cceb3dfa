import numpy as np
import pytest

from fedskew import partition as pt
from fedskew import textdata as td


def balanced_corpus(n_per_class=2500, num_classes=4, seed=0):
    spec = td.SyntheticSpec(num_classes=num_classes, vocab_size=50,
                            train_docs_per_class=n_per_class, test_docs_per_class=1,
                            doc_length=4, topic_concentration=1.0, seed=seed)
    return td.generate_synthetic(spec)


CORPUS = balanced_corpus()  # 10^4 balanced samples, shared across tests


def check_exhaustive(partitions, n):
    all_idx = sorted(i for p in partitions for i in p.sample_indices)
    assert all_idx == list(range(n))


def test_single_client_owns_everything():
    parts = pt.dirichlet_partition(CORPUS, pt.PartitionConfig(1, 0.5, seed=42))
    assert parts[0].size == len(CORPUS.train)
    check_exhaustive(parts, len(CORPUS.train))


def test_determinism():
    cfg = pt.PartitionConfig(10, 0.1, seed=42)
    a = pt.dirichlet_partition(CORPUS, cfg)
    b = pt.dirichlet_partition(CORPUS, cfg)
    assert [p.sample_indices for p in a] == [p.sample_indices for p in b]


def test_histograms_and_present_classes():
    parts = pt.dirichlet_partition(CORPUS, pt.PartitionConfig(5, 0.3, seed=1))
    labels = CORPUS.train.labels.tolist()
    for p in parts:
        assert sum(p.label_histogram) == p.size
        for c in range(4):
            assert p.label_histogram[c] == sum(1 for i in p.sample_indices if labels[i] == c)
        assert p.present_classes == {c for c in range(4) if p.label_histogram[c] > 0}


def test_moderate_alpha_sizes_near_uniform():
    # Dir(5*1_10) client sizes have ~21% relative std, so individual clients
    # land within +-30% of N/K about 85% of the time; check that rate.
    n = len(CORPUS.train)
    within = total = 0
    for seed in range(100):
        parts = pt.dirichlet_partition(CORPUS, pt.PartitionConfig(10, 5.0, seed=seed))
        check_exhaustive(parts, n)
        sizes = np.array([p.size for p in parts])
        within += int(np.sum(np.abs(sizes - n / 10) <= 0.3 * n / 10))
        total += sizes.size
    assert within / total > 0.75


def test_extreme_alpha_is_skewed():
    hits = 0
    for seed in range(100):
        parts = pt.dirichlet_partition(CORPUS, pt.PartitionConfig(10, 0.1, seed=seed))
        report = pt.skew_report(parts)
        if report.max_min_ratio >= 10:
            hits += 1
    assert hits >= 90


def test_concentration_monotonicity_and_mean_size():
    def mean_prop_variance(alpha, seeds):
        vs, sizes = [], []
        for seed in seeds:
            parts = pt.dirichlet_partition(CORPUS, pt.PartitionConfig(10, alpha, seed=seed))
            for p in parts:
                props = np.array(p.label_histogram) / max(p.size, 1)
                vs.append(props.var())
                sizes.append(p.size)
        return np.mean(vs), np.mean(sizes)

    v_low, mean_low = mean_prop_variance(0.1, range(200))
    v_high, mean_high = mean_prop_variance(5.0, range(200))
    assert v_low > v_high
    n_over_k = len(CORPUS.train) / 10
    assert abs(mean_low - n_over_k) / n_over_k < 0.02
    assert abs(mean_high - n_over_k) / n_over_k < 0.02


def test_redraw_budget_error_carries_report():
    cfg = pt.PartitionConfig(10, 0.05, seed=0, min_samples_per_client=10**6, max_redraws=3)
    with pytest.raises(pt.PartitionError) as exc:
        pt.dirichlet_partition(CORPUS, cfg)
    assert exc.value.report is not None
    assert len(exc.value.report.sizes) == 10


def test_skew_report_values():
    parts = [
        pt.ClientPartition(0, list(range(118)), [118, 0]),
        pt.ClientPartition(1, list(range(118, 118 + 34742)), [17371, 17371]),
    ]
    report = pt.skew_report(parts)
    assert report.max_min_ratio == pytest.approx(294.42, abs=0.01)
    assert report.class_entropies[0] == 0.0
    assert report.class_entropies[1] == pytest.approx(np.log(2))
    equal = pt.skew_report([pt.ClientPartition(0, [0], [1]), pt.ClientPartition(1, [1], [1])])
    assert equal.max_min_ratio == 1.0


def test_manifest_roundtrip(tmp_path):
    cfg = pt.PartitionConfig(4, 0.5, seed=9)
    parts = pt.dirichlet_partition(CORPUS, cfg)
    path = tmp_path / "partition.json"
    pt.save_manifest(parts, cfg, path)
    back = pt.load_manifest(path)
    assert [p.sample_indices for p in back] == [p.sample_indices for p in parts]
    assert [p.label_histogram for p in back] == [p.label_histogram for p in parts]
