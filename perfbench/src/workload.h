// The three workloads: their data shapes, the seeded setup scripts, the
// operation generator and the correctness model every answer is checked
// against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/result.h"
#include "util.h"

namespace perfbench {

enum class Workload { kOltpPoint, kComputeRead, kTimeTravel };

bool ParseWorkload(const std::string& name, Workload* out);

/// The four timed operation types. A write is a whole transaction
/// (instVarNamed:put:, commit, begin); a history read is one time-dial
/// read of a past balance (§5.3's `elementAt:atTime:`).
enum OpKind { kRead = 0, kWrite, kQuery, kHistory, kNumKinds };

extern const char* const kKindNames[kNumKinds];

/// Data sizes of one workload.
struct Shape {
  std::size_t accounts = 0;
  std::size_t employees = 0;
  /// compute_read: accounts per analytic group (Groups at: g).
  std::size_t group_size = 0;
  /// time_travel: balance versions committed in setup, per account, and
  /// how many of them stay resident (the rest is demoted to cold runs).
  std::size_t versions = 0;
  std::size_t resident_versions = 0;
  std::size_t versions_per_round = 0;
  bool tiers = false;
};

Shape ShapeFor(Workload w, bool tiny);

/// One session on a system under test: over the wire (net::Client) or
/// in process (Executor). Commit ends the transaction and begins the
/// next one, answering the commit time.
class Conn {
 public:
  virtual ~Conn() = default;
  virtual gemstone::Result<std::string> Execute(const std::string& src) = 0;
  virtual gemstone::Result<std::string> Stdm(const std::string& query) = 0;
  virtual gemstone::Result<std::uint64_t> Commit() = 0;
};

struct Version {
  std::uint64_t time = 0;
  std::int64_t value = 0;
};

/// What the benchmark knows about one account. Balances only grow, so a
/// read racing a concurrent writer can be bounded: it must lie between
/// the last value acknowledged before the request was sent and the last
/// value sent before the reply arrived.
struct AccountModel {
  std::atomic<std::int64_t> sent{0};
  std::atomic<std::int64_t> acked{0};
  std::mutex mu;
  std::vector<Version> versions;  // acknowledged, ascending time
};

struct Employee {
  std::string name;
  std::int64_t salary = 0;
  int dept = 0;
};

/// The generator's model of the database.
class Model {
 public:
  Model(Workload workload, Shape shape, std::uint64_t seed);

  Workload workload() const { return workload_; }
  const Shape& shape() const { return shape_; }
  std::size_t accounts() const { return accounts_.size(); }
  AccountModel& account(std::size_t k) { return *accounts_[k]; }
  const std::vector<Employee>& employees() const { return employees_; }
  /// Zipf rank -> account (a seeded permutation).
  std::size_t HotAccount(std::size_t rank) const { return hot_order_[rank]; }

  /// Records an acknowledged write.
  void Acknowledge(std::size_t k, std::uint64_t time, std::int64_t value);

  /// Committed element versions the system holds: every balance version
  /// plus the one-time bindings of setup (employee fields, array slots).
  std::uint64_t ElementVersions() const;

  /// Seeded-bug fixture: corrupts the model's view of one account.
  void Perturb();

  /// Runs the setup script on `conn`, recording every version. `compact`
  /// is called where the time_travel script drives the compactor to
  /// quiescence. Answers the commit times, in order.
  gemstone::Result<std::vector<std::uint64_t>> Setup(
      Conn* conn, const std::function<gemstone::Status()>& compact);

 private:
  Workload workload_;
  Shape shape_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<AccountModel>> accounts_;
  std::vector<Employee> employees_;
  std::vector<std::size_t> hot_order_;
  std::uint64_t setup_bindings_ = 0;
};

/// One generated operation.
struct Op {
  OpKind kind = kRead;
  std::string text;  // the OPAL block or set-calculus query sent
  std::size_t account = 0;
  std::int64_t value = 0;    // write: the new balance
  std::uint64_t time = 0;    // history: the commit time dialed to
  std::int64_t expect = 0;   // history / analytic reads: the answer
  bool analytic = false;     // compute_read's analytic block
  int variant = 0;           // analytic: sum / count-above / max
  std::size_t pivot = 0;     // analytic count: whose balance is the bar
  std::vector<std::string> expect_names;  // queries: the result set
};

/// The operation mixes: `main` is the workload's measured mix; `probe`
/// names the op types the main mix lacks, timed in a separate
/// one-client phase so every workload reports every latency metric.
struct Mix {
  double weight[kNumKinds] = {0, 0, 0, 0};
};
Mix MainMix(Workload w);
Mix ProbeMix(Workload w);

/// The open loop's fixed aggregate rate in ops/s: a ninth to a quarter of
/// the closed-loop throughput measured when the benchmark was added (see
/// perfbench/README.md, "Stability", for why not a half).
double OpenLoopRate(Workload w);

/// Generates and runs operations for one client against the model.
class OpRunner {
 public:
  OpRunner(Model* model, int client, int clients, std::uint64_t seed);

  Op Next(const Mix& mix);

  /// Fills in a write's value or a history read's time just before it is
  /// sent (both depend on the model's state at that moment).
  void Prepare(Op* op);

  /// Runs `op` on `conn` and checks the answer. Returns false (with a
  /// reason in `error`) on an error reply or a wrong answer.
  bool Run(Conn* conn, Op* op, std::string* error);

  /// Checks an answer already obtained for `op` (used by the layer
  /// ladder, which sends the same op to several layers).
  bool Check(const Op& op, const std::string& answer, std::int64_t lo,
             std::int64_t hi, std::string* error) const;


 private:
  std::size_t OwnAccount();
  Model* model_;
  int client_;
  int clients_;
  Rng rng_;
  Zipf zipf_;
};

/// Names in a rendered STDM result set (`{{N: 'e12'}, ...}`), sorted.
std::vector<std::string> ParseNames(const std::string& rendered);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
