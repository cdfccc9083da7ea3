"""Tests for the ZSL-KG module."""

import copy
import gc

import numpy as np
import pytest

from repro.modules import GraphClassEncoder, ZslKgConfig, ZslKgModule
from repro.nn import Tensor


FAST_CONFIG = ZslKgConfig()


def _quick(**fields) -> ZslKgConfig:
    """A pretrain small enough to run several times per test."""
    return ZslKgConfig(pretrain_epochs=3, max_training_concepts=40,
                       images_per_prototype=2, **fields)


class TestGraphClassEncoder:
    def test_output_shape(self):
        encoder = GraphClassEncoder(embedding_dim=16, hidden_dim=8, output_dim=6,
                                    rng=np.random.default_rng(0))
        out = encoder(Tensor(np.random.default_rng(1).normal(size=(4, 32))))
        assert out.shape == (4, 6)


class TestZslKgModule:
    def test_zero_shot_above_chance(self, module_input, fmd_test_data):
        ZslKgModule.pretrained_store.clear()
        taglet = ZslKgModule(FAST_CONFIG).train(module_input)
        accuracy = taglet.accuracy(*fmd_test_data)
        assert accuracy > 1.5 / module_input.num_classes

    def test_does_not_use_labeled_data(self, module_input, fmd_test_data):
        """Shuffling the labels must not change the taglet: it is zero-shot."""
        ZslKgModule.pretrained_store.clear()
        module = ZslKgModule(FAST_CONFIG)
        taglet_a = module.train(module_input)

        shuffled = copy.copy(module_input)
        shuffled.labeled_labels = np.roll(module_input.labeled_labels, 1)
        taglet_b = module.train(shuffled)
        np.testing.assert_allclose(taglet_a.predict_proba(fmd_test_data[0][:5]),
                                   taglet_b.predict_proba(fmd_test_data[0][:5]))

    def test_probabilities_valid(self, module_input, fmd_test_data):
        taglet = ZslKgModule(FAST_CONFIG).train(module_input)
        probs = taglet.predict_proba(fmd_test_data[0][:7])
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7))

    def test_pretraining_is_cached(self, module_input):
        ZslKgModule.pretrained_store.clear()
        module = ZslKgModule(FAST_CONFIG)
        module.train(module_input)
        assert len(ZslKgModule.pretrained_store) == 1
        module.train(module_input)
        assert len(ZslKgModule.pretrained_store) == 1

    def test_pretrain_store_keys_on_config_and_seed(self, module_input):
        # Another config or seed on the same backbone and graph must not get
        # the first run's state back.
        store = ZslKgModule.pretrained_store
        store.clear()
        backbone, bundle = module_input.backbone, module_input.scads
        small = ZslKgModule(_quick(hidden_dim=8))._pretrain(bundle, backbone,
                                                              seed=7)
        wide = ZslKgModule(_quick(hidden_dim=12))._pretrain(bundle, backbone,
                                                              seed=7)
        assert small["fc1.weight"].shape[1] == 8
        assert wide["fc1.weight"].shape[1] == 12
        reseeded = ZslKgModule(_quick(hidden_dim=8))._pretrain(
            bundle, backbone, seed=8)
        assert not np.array_equal(reseeded["fc1.weight"], small["fc1.weight"])
        assert len(store) == 3
        # The same inputs hit; a logit_scale change does not affect the key.
        again = ZslKgModule(_quick(hidden_dim=8, logit_scale=2.0))._pretrain(
            bundle, backbone, seed=7)
        assert again is small
        assert len(store) == 3

    def test_pretrain_store_entries_die_with_the_backbone(self, module_input):
        store = ZslKgModule.pretrained_store
        store.clear()
        bundle = module_input.scads
        backbone = copy.copy(module_input.backbone)
        ZslKgModule(_quick(hidden_dim=8))._pretrain(bundle, backbone, seed=0)
        assert len(store) == 1
        del backbone
        gc.collect()
        assert len(store) == 0

    def test_requires_scads(self, module_input):
        broken = copy.copy(module_input)
        broken.scads = None
        with pytest.raises(ValueError):
            ZslKgModule(FAST_CONFIG).train(broken)

    def test_handles_oov_target_classes(self, tiny_workspace, tiny_backbone):
        """Grocery Store includes oatghurt/soygurt, which are added nodes."""
        from repro.modules.base import ModuleInput
        from repro.scads.query import AuxiliarySelection

        split = tiny_workspace.make_task_split("grocery_store", shots=1, split_seed=0)
        empty = AuxiliarySelection(
            features=np.zeros((0, tiny_workspace.world.image_dim)),
            labels=np.zeros(0, dtype=np.int64), concepts=[])
        data = ModuleInput(classes=split.classes,
                           labeled_features=split.labeled_features,
                           labeled_labels=split.labeled_labels,
                           unlabeled_features=split.unlabeled_features[:20],
                           auxiliary=empty, backbone=tiny_backbone,
                           scads=tiny_workspace.scads, seed=0)
        taglet = ZslKgModule(FAST_CONFIG).train(data)
        probs = taglet.predict_proba(split.test_features[:5])
        assert probs.shape == (5, split.num_classes)
        assert np.isfinite(probs).all()
