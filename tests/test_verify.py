from sopac import learn, verify


def test_margin_failing_draws_skip_the_losses(monkeypatch):
    # Draws whose ReLU margins fail are rejected before the critic targets,
    # the unroll and the advantages are built. The rng is read only when a
    # trainer is built, so the suite still checks the same draws. The counters
    # wrap the module attributes that the benchmark's tracer hooks.
    calls = dict.fromkeys(("create", "prepare", "conditioned"), 0)

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(learn.Trainer, "create",
                        staticmethod(counting("create", learn.Trainer.create)))
    monkeypatch.setattr(verify, "prepare_critic_batch",
                        counting("prepare", verify.prepare_critic_batch))
    monkeypatch.setattr(verify, "_well_conditioned",
                        counting("conditioned", verify._well_conditioned))
    result = verify.gradient_suite(seeds=2)
    assert calls == {"create": 254, "prepare": 173, "conditioned": 346}
    assert result.overall < 1e-4
