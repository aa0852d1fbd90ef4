"""Adversarial variant: train on FGSM-perturbed batches, evaluate under attack.

The adversarial mode perturbs each training batch with a fast-gradient-sign
step of size epsilon_train before the weight update, on top of the usual loss
reweighting. The sweep below shows accuracy under test-time FGSM of growing
strength for the plain and adversarial variants.
"""

from rockrelax import (
    Architecture,
    ContaminatedDataset,
    LossKind,
    ReweightConfig,
    TrainConfig,
    evaluate_fgsm_sweep,
    inject_ncar,
    make_synthetic_blobs,
    run,
    split,
)

blobs = make_synthetic_blobs(3, 600, 10, 6.0, seed=0)
observed, chosen = inject_ncar(blobs.clean_labels, 0.2, 3, seed=100)
ds = ContaminatedDataset(blobs.features, observed, blobs.clean_labels, chosen, 3)
train, val, test = split(ds, (0.64, 0.16, 0.2), seed=200)
test = ContaminatedDataset.clean(test.features, test.clean_labels, 3)

base = dict(loss_kind=LossKind.CCE, epochs_per_iteration=10, batch_size=32,
            learning_rate=0.1, reweight=ReweightConfig(gamma=0.4, mu=0.5),
            max_iterations=10, seed=0)
plain, _ = run(train, val, test, TrainConfig(mode="rrm", **base),
               Architecture((10, 64, 64, 3)))
adv, _ = run(train, val, test, TrainConfig(mode="arrm", epsilon_train=0.1, **base),
             Architecture((10, 64, 64, 3)))

epsilons = [0.0, 0.05, 0.1, 0.2, 0.4]
sweep_plain = evaluate_fgsm_sweep(plain, test, epsilons, LossKind.CCE)
sweep_adv = evaluate_fgsm_sweep(adv, test, epsilons, LossKind.CCE)

print("eps    reweighted  adversarial")
for eps in epsilons:
    print(f"{eps:.2f}   {sweep_plain[eps]:.3f}       {sweep_adv[eps]:.3f}")
