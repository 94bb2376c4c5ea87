// Wire-protocol canonicalization: equivalent requests — however spelled
// — must land on one canonical string (and therefore one job id), and
// the canonical string must round-trip losslessly, because it is the
// manifest header a worker process reconstructs the whole job from.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/engine/scenario.h"
#include "src/service/protocol.h"

namespace dynbcast {
namespace {

TEST(ServiceProtocolTest, CanonicalStringIsAFixpoint) {
  ServiceRequest request;
  request.scenario.sizes = {4, 8, 16};
  request.scenario.seedsPerSize = 2;

  const std::string canonical = canonicalRequestString(request);
  const ServiceRequest decoded = decodeCanonicalRequest(canonical);
  EXPECT_EQ(canonicalRequestString(decoded), canonical);
  EXPECT_EQ(requestJobId(decoded), requestJobId(request));
}

TEST(ServiceProtocolTest, DefaultAdversariesAreResolvedIntoTheCanonicalForm) {
  ServiceRequest implicit;
  implicit.scenario.sizes = {4, 8};

  ServiceRequest explicitRequest;
  explicitRequest.scenario.sizes = {4, 8};
  explicitRequest.scenario.adversaries =
      defaultAdversarySpecs(explicitRequest.scenario.dynamics);

  // Spelling out the dynamics' default portfolio changes nothing: both
  // requests are the same job.
  EXPECT_EQ(canonicalRequestString(implicit),
            canonicalRequestString(explicitRequest));
  EXPECT_EQ(requestJobId(implicit), requestJobId(explicitRequest));
}

TEST(ServiceProtocolTest, SpecSpellingVariantsShareAJobId) {
  ServiceRequest a;
  a.scenario.dynamics = "edge-markovian:p=0.2,q=0.1";
  a.scenario.sizes = {8, 16};

  ServiceRequest b;
  b.scenario.dynamics = "edge-markovian: q=0.1, p=0.2";  // reordered, spaced
  b.scenario.sizes = {8, 16};

  EXPECT_EQ(canonicalRequestString(a), canonicalRequestString(b));
  EXPECT_EQ(requestJobId(a), requestJobId(b));
}

TEST(ServiceProtocolTest, BeamKeysAppearOnlyForTheoremSweeps) {
  ServiceRequest tree;
  tree.scenario.sizes = {4, 8};
  ASSERT_TRUE(requestWantsBeamWitnesses(tree));
  EXPECT_NE(canonicalRequestString(tree).find("beam-maxn="),
            std::string::npos);

  ServiceRequest gossip;
  gossip.scenario.objective = Objective::kGossip;
  gossip.scenario.sizes = {4, 8};
  ASSERT_FALSE(requestWantsBeamWitnesses(gossip));
  EXPECT_EQ(canonicalRequestString(gossip).find("beam-"), std::string::npos);

  ServiceRequest model;
  model.scenario.dynamics = "edge-markovian:p=0.2,q=0.1";
  model.scenario.sizes = {4, 8};
  ASSERT_FALSE(requestWantsBeamWitnesses(model));
  EXPECT_EQ(canonicalRequestString(model).find("beam-"), std::string::npos);

  // ... and the beam knobs change the job id exactly when they apply.
  ServiceRequest narrower = tree;
  narrower.beamWidth = 64;
  EXPECT_NE(requestJobId(narrower), requestJobId(tree));
  ServiceRequest gossipNarrower = gossip;
  gossipNarrower.beamWidth = 64;
  EXPECT_EQ(requestJobId(gossipNarrower), requestJobId(gossip));
}

TEST(ServiceProtocolTest, DecodeRejectsUnknownKeysWithASuggestion) {
  try {
    (void)decodeRequest({"sizse=4,8"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown request key 'sizse'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'sizes'"), std::string::npos)
        << message;
  }
}

TEST(ServiceProtocolTest, DecodeRequiresSizes) {
  EXPECT_THROW((void)decodeRequest({"seed=1"}), std::invalid_argument);
  EXPECT_THROW((void)decodeRequest({"not a kv line"}),
               std::invalid_argument);
  // A range from 0 used to loop until memory ran out on the server.
  EXPECT_THROW((void)decodeRequest({"sizes=0:8"}), std::invalid_argument);
  EXPECT_THROW((void)decodeRequest({"sizes=4,,8"}), std::invalid_argument);
  EXPECT_THROW((void)decodeRequest({"sizes=4", "seed=99999999999999999999"}),
               std::invalid_argument);
}

TEST(ServiceProtocolTest, HashPrimitivesAreStable) {
  // These values land in on-disk filenames (manifests, cache buckets);
  // pin them so a refactor cannot silently orphan existing state.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xdeadbeef12345678ull), "deadbeef12345678");
}

}  // namespace
}  // namespace dynbcast
