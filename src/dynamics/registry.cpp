// Every concrete DynamicsModel in this file promises deterministic
// replay from (n, seed) across reset(); gated by the named suite.
// dynbcast-lint: replay-test(EveryModelReplaysAtParamBoundaries)
#include "src/dynamics/registry.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/adversary/portfolio.h"
#include "src/bounds/bounds.h"
#include "src/nonsplit/nonsplit.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

/// Extracts a dense round into an arc list (diagonal skipped; self-loops
/// are implicit on the sparse path) — the mirror-mode bridge that keeps
/// sparse generation bit-identical to dense at overlapping n.
void appendArcsFromDense(const BitMatrix& g, SparseRound& out) {
  const std::size_t n = g.dim();
  for (std::size_t x = 0; x < n; ++x) {
    const DynBitset& row = g.row(x);
    const std::uint64_t* words = row.wordData();
    for (std::size_t wi = 0; wi < row.wordCount(); ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const std::size_t y =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        if (y == x) continue;
        out.arcs.emplace_back(static_cast<std::uint32_t>(x),
                              static_cast<std::uint32_t>(y));
      }
    }
  }
}

/// Calls fn(i) for each success of an iid Bernoulli(p) process over
/// i ∈ [0, space), in ascending order, using geometric skip-sampling —
/// O(successes) RNG draws instead of O(space). Distributionally
/// equivalent to per-index chance(p) but NOT the same RNG call sequence,
/// so it is only used above kSparseDenseMirrorMaxN.
template <typename Fn>
void skipSampleBernoulli(std::uint64_t space, double p, Rng& rng, Fn&& fn) {
  if (p <= 0.0 || space == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < space; ++i) fn(i);
    return;
  }
  const double denom = std::log1p(-p);
  std::uint64_t i = 0;
  while (i < space) {
    double u = rng.uniformReal();
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    const double gap = std::floor(std::log(u) / denom);
    if (gap >= static_cast<double>(space - i)) return;
    i += static_cast<std::uint64_t>(gap);
    fn(i);
    ++i;
  }
}

/// Decodes ascending indices of the n(n-1) off-diagonal ordered-pair
/// space into their (x, y) arcs; indices ascend lexicographically in
/// (x, y), row x holding [x(n-1), (x+1)(n-1)). The row is carried
/// forward, so only an index that skips a whole row costs a division.
class AscendingPairDecoder {
 public:
  explicit AscendingPairDecoder(std::size_t n) : width_(n - 1) {}

  std::pair<std::uint32_t, std::uint32_t> operator()(std::uint64_t i) {
    if (i - rowStart_ >= width_) {
      if (i - rowStart_ < 2 * width_) {
        ++x_;
        rowStart_ += width_;
      } else {
        x_ = static_cast<std::uint32_t>(i / width_);
        rowStart_ = x_ * width_;
      }
    }
    const auto r = static_cast<std::uint32_t>(i - rowStart_);
    return {x_, r + (r >= x_ ? 1 : 0)};
  }

 private:
  std::uint64_t width_;
  std::uint64_t rowStart_ = 0;
  std::uint32_t x_ = 0;
};

/// Stall-detector cap for the stochastic models with no sharper published
/// bound here (edge-Markovian, T-interval): oblivious dynamic sequences
/// finish broadcast within O(n), so ~10n with slack separates "slow" from
/// "never" — the same margin defaultGossipRoundCap uses.
[[nodiscard]] std::size_t stochasticStallCap(std::size_t n) {
  return 10 * n + 50;
}

/// Shared base: owns the (n, seed) identity, the replayable RNG, and the
/// canonical display name.
class SeededGraphModel : public DynamicsModel {
 public:
  SeededGraphModel(std::size_t n, std::uint64_t seed, std::string name)
      : n_(n), seed_(seed), rng_(seed), name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  void reset() override { rng_ = Rng(seed_); }

 protected:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;

 private:
  std::string name_;
};

/// "nonsplit-random": a fresh random nonsplit graph every round — extra
/// random edges (count or Bernoulli density) plus the repair pass.
class NonsplitRandomModel final : public SeededGraphModel {
 public:
  NonsplitRandomModel(std::size_t n, std::uint64_t seed, std::size_t edges,
                      double p, std::string name)
      : SeededGraphModel(n, seed, std::move(name)), edges_(edges), p_(p) {}

  BitMatrix nextGraph(const BroadcastSim&) override { return denseDraw(); }

  [[nodiscard]] bool supportsSparseRounds() const override { return true; }

  void nextSparseRound(SparseRound& out) override {
    out.n = n_;
    out.arcs.clear();
    if (n_ <= kSparseDenseMirrorMaxN) {
      appendArcsFromDense(denseDraw(), out);
      return;
    }
    // Native sparse draw: the same random arcs, but the dense repair
    // pass (which walks all pairs) is replaced by a random hub informing
    // everyone — still nonsplit (the hub is a common in-neighbor of
    // every pair), distributionally close rather than identical.
    if (p_ > 0.0) {
      AscendingPairDecoder decode(n_);
      skipSampleBernoulli(
          static_cast<std::uint64_t>(n_) * (n_ - 1), p_, rng_,
          [&](std::uint64_t i) { out.arcs.push_back(decode(i)); });
    } else {
      const std::size_t count = edges_ != 0 ? edges_ : 2 * n_;
      for (std::size_t e = 0; e < count; ++e) {
        const auto x = static_cast<std::uint32_t>(rng_.uniform(n_));
        const auto y = static_cast<std::uint32_t>(rng_.uniform(n_));
        if (x != y) out.arcs.emplace_back(x, y);
      }
    }
    const auto hub = static_cast<std::uint32_t>(rng_.uniform(n_));
    for (std::uint32_t y = 0; y < n_; ++y) {
      if (y != hub) out.arcs.emplace_back(hub, y);
    }
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNonsplit;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return static_cast<std::size_t>(bounds::nonsplitLogUpper(n_)) + 8;
  }

 private:
  BitMatrix denseDraw() {
    if (p_ > 0.0) return bernoulliNonsplitGraph(n_, p_, rng_);
    return randomNonsplitGraph(n_, edges_ != 0 ? edges_ : 2 * n_, rng_);
  }

  std::size_t edges_;
  double p_;
};

/// "nonsplit-skewed": every pair's common in-neighbor is biased towards
/// low indices — few dispatchers do most of the informing.
class NonsplitSkewedModel final : public SeededGraphModel {
 public:
  NonsplitSkewedModel(std::size_t n, std::uint64_t seed, std::string name)
      : SeededGraphModel(n, seed, std::move(name)) {}

  BitMatrix nextGraph(const BroadcastSim&) override {
    return skewedNonsplitGraph(n_, rng_);
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNonsplit;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return static_cast<std::size_t>(bounds::nonsplitLogUpper(n_)) + 8;
  }
};

/// "edge-markovian": every directed non-loop edge is an independent
/// two-state Markov chain — absent edges are born with probability p,
/// present edges die with probability q (Kuhn–Lynch–Oshman's
/// edge-Markovian evolving graphs). Round 1 is a stationary draw
/// (density p/(p+q)); later rounds evolve it one step.
class EdgeMarkovianModel final : public SeededGraphModel {
 public:
  EdgeMarkovianModel(std::size_t n, std::uint64_t seed, double p, double q,
                     std::string name)
      : SeededGraphModel(n, seed, std::move(name)), p_(p), q_(q) {}

  BitMatrix nextGraph(const BroadcastSim&) override {
    denseStep();
    BitMatrix g = edges_;
    for (std::size_t v = 0; v < n_; ++v) g.set(v, v);
    return g;
  }

  [[nodiscard]] bool supportsSparseRounds() const override { return true; }

  void nextSparseRound(SparseRound& out) override {
    out.n = n_;
    out.arcs.clear();
    if (n_ <= kSparseDenseMirrorMaxN) {
      // Mirror mode: the exact dense RNG call sequence, arcs extracted
      // from the evolved matrix.
      denseStep();
      appendArcsFromDense(edges_, out);
      return;
    }
    // Native sparse evolution over the present-arc list: deaths by
    // per-arc Bernoulli(q), births by skip-sampling Bernoulli(p) over
    // the whole pair space with present pairs rejected (a present pair
    // only faces death this round, exactly as in the dense step).
    const std::uint64_t space = static_cast<std::uint64_t>(n_) * (n_ - 1);
    if (!sparseStarted_) {
      const double stationary = p_ + q_ > 0.0 ? p_ / (p_ + q_) : 1.0;
      sparseKeys_.clear();
      skipSampleBernoulli(space, stationary, rng_,
                          [&](std::uint64_t i) { sparseKeys_.push_back(i); });
      sparseStarted_ = true;
    } else {
      evolveSparseKeys(space);
    }
    // A sixteenth of slack: the next round, about as large, then reuses
    // this buffer instead of holding two at once while it reallocates.
    if (sparseKeys_.size() > out.arcs.capacity()) {
      out.arcs.reserve(sparseKeys_.size() + sparseKeys_.size() / 16);
    }
    AscendingPairDecoder decode(n_);
    for (const std::uint64_t key : sparseKeys_) {
      out.arcs.push_back(decode(key));
    }
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNone;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return stochasticStallCap(n_);
  }

  void reset() override {
    SeededGraphModel::reset();
    started_ = false;
    sparseStarted_ = false;
    sparseKeys_.clear();
  }

 private:
  /// One dense chain step into edges_ (stationary draw first, evolution
  /// after) — shared by nextGraph and the sparse mirror mode.
  void denseStep() {
    if (!started_) {
      const double stationary = p_ + q_ > 0.0 ? p_ / (p_ + q_) : 1.0;
      edges_ = BitMatrix(n_);
      for (std::size_t x = 0; x < n_; ++x) {
        for (std::size_t y = 0; y < n_; ++y) {
          if (x != y && rng_.chance(stationary)) edges_.set(x, y);
        }
      }
      started_ = true;
    } else {
      for (std::size_t x = 0; x < n_; ++x) {
        for (std::size_t y = 0; y < n_; ++y) {
          if (x == y) continue;
          if (edges_.get(x, y)) {
            if (rng_.chance(q_)) edges_.reset(x, y);
          } else {
            if (rng_.chance(p_)) edges_.set(x, y);
          }
        }
      }
    }
  }

  /// One native chain step of sparseKeys_. Every death is drawn first,
  /// in key order, as one bit per present key; then the births are
  /// skip-sampled in ascending order into a fixed-size chunk, and each
  /// full chunk is merged with the surviving old keys by a branch-free
  /// two-pointer pass (mergeBirthChunk). The RNG draws are those of "all
  /// deaths, then all births": the merge draws nothing, so chunking
  /// cannot reorder them.
  void evolveSparseKeys(std::uint64_t space) {
    const std::size_t present = sparseKeys_.size();
    deathBits_.assign((present + 63) / 64, 0);
    for (std::size_t k = 0; k < present; ++k) {
      deathBits_[k / 64] |= static_cast<std::uint64_t>(rng_.chance(q_))
                            << (k % 64);
    }
    // Its old contents are stale: drop them when a reallocation would
    // copy them.
    if (mergedKeys_.capacity() <= present) mergedKeys_.clear();
    MergeCursor at;
    std::size_t pending = 0;
    skipSampleBernoulli(space, p_, rng_, [&](std::uint64_t i) {
      birthChunk_[pending++] = i;
      if (pending == birthChunk_.size()) {
        mergeBirthChunk(pending, at);
        pending = 0;
      }
    });
    mergeBirthChunk(pending, at);
    // The survivors above the last birth.
    const std::uint64_t* old = sparseKeys_.data();
    const std::uint64_t* dead = deathBits_.data();
    std::uint64_t* next = mergedKeys_.data();
    std::size_t w = at.written;
    for (std::size_t k = at.old; k < present; ++k) {
      next[w] = old[k];
      w += ((dead[k / 64] >> (k % 64)) & 1) ^ 1;
    }
    mergedKeys_.resize(w);
    sparseKeys_.swap(mergedKeys_);
  }

  /// Where the merge of one chain step stands: the old keys consumed and
  /// the next round's keys written so far.
  struct MergeCursor {
    std::size_t old = 0;
    std::size_t written = 0;
  };

  /// Merges birthChunk_[0, count) with the old keys from at.old on,
  /// until the chunk is consumed. Each step writes min(old key, birth)
  /// and advances the side(s) that hold it; an old key is kept only if
  /// it lives, and a birth equal to an old key is rejected (a present
  /// pair only faces death this round, exactly as in the dense step). No
  /// step branches on the keys, so a birth landing between survivors
  /// costs no mispredict.
  void mergeBirthChunk(std::size_t count, MergeCursor& at) {
    const std::size_t present = sparseKeys_.size();
    // Every slot is written before it is kept, so the buffer needs room
    // for every remaining old key plus the chunk. It grows by a
    // sixteenth, not by vector's doubling, since births and deaths
    // nearly balance.
    const std::size_t needed = at.written + (present - at.old) + count;
    if (needed > mergedKeys_.capacity()) {
      mergedKeys_.reserve(needed + needed / 16 + 64);
    }
    mergedKeys_.resize(mergedKeys_.capacity());
    const std::uint64_t* old = sparseKeys_.data();
    const std::uint64_t* dead = deathBits_.data();
    const std::uint64_t* births = birthChunk_.data();
    std::uint64_t* next = mergedKeys_.data();
    std::size_t w = at.written;
    std::size_t k = at.old;
    std::size_t b = 0;
    while (b < count && k < present) {
      const std::uint64_t key = old[k];
      const std::uint64_t birth = births[b];
      const std::size_t takeOld = key <= birth;
      const std::size_t takeBirth = birth <= key;
      const std::size_t died = (dead[k / 64] >> (k % 64)) & 1;
      next[w] = std::min(key, birth);
      w += 1 - (takeOld & died);
      k += takeOld;
      b += takeBirth;
    }
    // The old keys ran out: the rest of the chunk are all births.
    for (; b < count; ++b) next[w++] = births[b];
    at.written = w;
    at.old = k;
  }

  double p_;
  double q_;
  /// Dense chain state — allocated by the first denseStep() only, so the
  /// native sparse path never pays the O(n²) bits.
  BitMatrix edges_;
  bool started_ = false;
  bool sparseStarted_ = false;
  /// Present off-diagonal arcs as sorted pair-space indices (see
  /// AscendingPairDecoder) — the O(edges) state of the native sparse chain.
  std::vector<std::uint64_t> sparseKeys_;
  /// Scratch of evolveSparseKeys: the next round's keys, one death bit
  /// per present key, and the births not yet merged.
  std::vector<std::uint64_t> mergedKeys_;
  std::vector<std::uint64_t> deathBits_;
  std::array<std::uint64_t, 256> birthChunk_{};
};

/// "t-interval": a uniformly random spanning tree, symmetrized (both
/// directions + self-loops), held stable for T consecutive rounds, then
/// redrawn — the T-interval-connectivity regime of Kuhn–Lynch–Oshman.
class TIntervalModel final : public SeededGraphModel {
 public:
  TIntervalModel(std::size_t n, std::uint64_t seed, std::size_t period,
                 std::string name)
      : SeededGraphModel(n, seed, std::move(name)), period_(period) {}

  BitMatrix nextGraph(const BroadcastSim&) override {
    if (age_ == 0) {
      const RootedTree tree = randomRootedTree(n_, rng_);
      current_ = BitMatrix::identity(n_);
      for (std::size_t v = 0; v < n_; ++v) {
        if (v == tree.root()) continue;
        current_.set(tree.parent(v), v);
        current_.set(v, tree.parent(v));
      }
    }
    age_ = (age_ + 1) % period_;
    return current_;
  }

  [[nodiscard]] bool supportsSparseRounds() const override { return true; }

  void nextSparseRound(SparseRound& out) override {
    // Consumes exactly the same RNG stream as nextGraph (one
    // randomRootedTree per period), so sparse mirrors dense at EVERY n —
    // a tree has 2(n-1) symmetrized arcs, never a dense matrix.
    out.n = n_;
    if (age_ == 0) {
      const RootedTree tree = randomRootedTree(n_, rng_);
      sparseArcs_.clear();
      sparseArcs_.reserve(2 * (n_ - 1));
      for (std::size_t v = 0; v < n_; ++v) {
        if (v == tree.root()) continue;
        const auto parent = static_cast<std::uint32_t>(tree.parent(v));
        const auto child = static_cast<std::uint32_t>(v);
        sparseArcs_.emplace_back(parent, child);
        sparseArcs_.emplace_back(child, parent);
      }
    }
    out.arcs = sparseArcs_;
    age_ = (age_ + 1) % period_;
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNone;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return stochasticStallCap(n_);
  }

  void reset() override {
    SeededGraphModel::reset();
    age_ = 0;
    current_ = BitMatrix();
    sparseArcs_.clear();
  }

 private:
  std::size_t period_;
  std::size_t age_ = 0;
  BitMatrix current_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sparseArcs_;
};

}  // namespace

void registerBuiltins(DynamicsRegistry& reg) {
  // The paper's model --------------------------------------------------------
  {
    DynamicsInfo info;
    info.name = "rooted-tree";
    info.description =
        "adversary-chosen rooted trees on [n]; broadcast is Theta(n) "
        "(Theorem 3.1)";
    info.literature = "El-Hayek, Henzinger & Schmid (this paper)";
    info.mode = DynamicsMode::kAdversaryTrees;
    info.graphClass = DynamicsClass::kRootedTree;
    info.params = {};  // no parameters, deliberately
    info.defaultAdversaries = [](const SpecParams&) {
      return standardPortfolioSpecs();
    };
    reg.add(std::move(info));
  }
  {
    DynamicsInfo info;
    info.name = "restricted";
    info.description =
        "adversary trees restricted to the k-leaf / k-inner classes "
        "(O(kn) broadcast)";
    info.literature = "restricted tree classes of [14]";
    info.mode = DynamicsMode::kAdversaryTrees;
    info.graphClass = DynamicsClass::kRootedTree;
    info.params = {
        {"class", "any",
         "which restricted class: any | k-leaf | k-inner | broom"},
        {"k", "2", "class parameter (leaves / inner nodes / handle length)"}};
    info.validateParams = [](const SpecParams& params, std::size_t) {
      const std::string cls = params.getString("class", "any");
      if (cls != "any" && cls != "k-leaf" && cls != "k-inner" &&
          cls != "broom") {
        throw std::invalid_argument(
            "dynamics 'restricted': class must be one of any, k-leaf, "
            "k-inner, broom (got '" +
            cls + "')");
      }
      if (params.getUInt("k", 2) < 1) {
        throw std::invalid_argument(
            "dynamics 'restricted': k must be >= 1");
      }
    };
    info.defaultAdversaries = [](const SpecParams& params) {
      const std::string cls = params.getString("class", "any");
      const std::string k = std::to_string(params.getUInt("k", 2));
      std::vector<std::string> specs;
      if (cls == "any" || cls == "k-leaf") specs.push_back("k-leaf:k=" + k);
      if (cls == "any" || cls == "k-inner") specs.push_back("k-inner:k=" + k);
      if (cls == "any" || cls == "broom") {
        specs.push_back("freeze-broom:handle=" + k);
      }
      return specs;
    };
    info.admissibleAdversaries = {"k-leaf", "k-inner", "freeze-broom"};
    reg.add(std::move(info));
  }

  // Nonsplit graphs ([2]/[9]) ------------------------------------------------
  {
    DynamicsInfo info;
    info.name = "nonsplit-random";
    info.description =
        "fresh random nonsplit graph every round: random extra edges + "
        "common-in-neighbor repair";
    info.literature = "Charron-Bost & Schiper [2] (log n broadcast)";
    info.graphClass = DynamicsClass::kNonsplit;
    info.stochastic = true;
    info.sparseCapable = true;
    info.params = {
        {"edges", "0", "random extra edges before the repair; 0 = 2n"},
        {"p", "0",
         "Bernoulli edge density instead of a count; 0 = use edges"}};
    info.validateParams = [](const SpecParams& params, std::size_t) {
      if (params.has("edges") && params.has("p")) {
        throw std::invalid_argument(
            "dynamics 'nonsplit-random': give either edges= (a count) or "
            "p= (a density), not both");
      }
      (void)params.getUInt("edges", 0);
      const double p = params.getDouble("p", 0.0);
      if (p < 0.0 || p > 1.0) {
        throw std::invalid_argument(
            "dynamics 'nonsplit-random': p must be in [0, 1]");
      }
    };
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const SpecParams& params) {
      return std::make_unique<NonsplitRandomModel>(
          n, seed, params.getUInt("edges", 0), params.getDouble("p", 0.0),
          formatSpec("nonsplit-random", params));
    };
    reg.add(std::move(info));
  }
  {
    DynamicsInfo info;
    info.name = "nonsplit-skewed";
    info.description =
        "nonsplit graphs whose common in-neighbors are biased towards few "
        "low-index dispatchers";
    info.literature = "slow regime of [2]/[9]";
    info.graphClass = DynamicsClass::kNonsplit;
    info.stochastic = true;
    info.params = {};  // no parameters, deliberately
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const SpecParams& params) {
      return std::make_unique<NonsplitSkewedModel>(
          n, seed, formatSpec("nonsplit-skewed", params));
    };
    reg.add(std::move(info));
  }

  // Kuhn-Lynch-Oshman-style dynamics -----------------------------------------
  {
    DynamicsInfo info;
    info.name = "edge-markovian";
    info.description =
        "every directed edge is a 2-state Markov chain: born w.p. p, dies "
        "w.p. q; round 1 is a stationary draw";
    info.literature =
        "edge-Markovian evolving graphs (Kuhn-Lynch-Oshman line; Clementi "
        "et al.)";
    info.graphClass = DynamicsClass::kNone;
    info.stochastic = true;
    info.sparseCapable = true;
    info.params = {{"p", "0.2", "edge birth probability (0 < p <= 1)"},
                   {"q", "0.1", "edge death probability (0 <= q <= 1)"}};
    info.validateParams = [](const SpecParams& params, std::size_t) {
      const double p = params.getDouble("p", 0.2);
      const double q = params.getDouble("q", 0.1);
      if (p <= 0.0 || p > 1.0) {
        throw std::invalid_argument(
            "dynamics 'edge-markovian': p must satisfy 0 < p <= 1 (p = 0 "
            "would freeze an empty graph forever)");
      }
      if (q < 0.0 || q > 1.0) {
        throw std::invalid_argument(
            "dynamics 'edge-markovian': q must be in [0, 1]");
      }
    };
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const SpecParams& params) {
      return std::make_unique<EdgeMarkovianModel>(
          n, seed, params.getDouble("p", 0.2), params.getDouble("q", 0.1),
          formatSpec("edge-markovian", params));
    };
    reg.add(std::move(info));
  }
  {
    DynamicsInfo info;
    info.name = "t-interval";
    info.description =
        "a random spanning tree, symmetrized, stable for T rounds, then "
        "rewired (T-interval connectivity)";
    info.literature = "Kuhn, Lynch & Oshman (STOC '10)";
    info.graphClass = DynamicsClass::kNone;
    info.stochastic = true;
    info.sparseCapable = true;
    info.params = {{"T", "4", "rounds each spanning subgraph stays stable"}};
    info.validateParams = [](const SpecParams& params, std::size_t) {
      if (params.getUInt("T", 4) < 1) {
        throw std::invalid_argument(
            "dynamics 't-interval': T must be >= 1");
      }
    };
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const SpecParams& params) {
      return std::make_unique<TIntervalModel>(
          n, seed, params.getUInt("T", 4),
          formatSpec("t-interval", params));
    };
    reg.add(std::move(info));
  }
}

template <>
DynamicsRegistry::SpecRegistry()
    : SpecRegistry("dynamics", "dynamics model",
                   "run 'dynbcast list' for the full model zoo") {}

template <>
void DynamicsRegistry::checkEntry(const DynamicsInfo& entry) const {
  const bool needsFactory = entry.mode == DynamicsMode::kGraphModel;
  if (needsFactory != static_cast<bool>(entry.factory)) {
    throw std::invalid_argument(
        "dynamics registration '" + entry.name +
        (needsFactory ? "': graph models need a factory"
                      : "': only graph models take a factory"));
  }
}

template <>
void DynamicsRegistry::checkMakeable(const DynamicsInfo& entry) const {
  if (entry.mode != DynamicsMode::kGraphModel) {
    throw std::invalid_argument(
        "dynamics '" + entry.name +
        "' is adversary-driven: its per-round graphs are the adversary's "
        "moves, so it has no standalone graph model (run it through a "
        "scenario with an adversary list instead)");
  }
}

}  // namespace dynbcast
