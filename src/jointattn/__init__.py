"""Multi-agent gridworld RL with recurrent visual attention.

Subpackages:
    numerics      float64 tensors, reverse-mode tape, Adam over a flat vector
    attention_net recurrent attention policy/value network
    ja_reward     attention-divergence bonus and its schedule
    gridworlds    cooperative grid environments and variants
    training      decentralized PPO, evaluation, social-learning runs
    cli           command-line entry points
"""

__version__ = "0.1.0"
