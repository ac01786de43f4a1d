#include "src/core/node_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"
#include "src/distance/dtw.h"

namespace odyssey {
namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();
}  // namespace

NodeRuntime::NodeRuntime(int node_id, const ReplicationLayout& layout,
                         std::shared_ptr<const Index> index)
    : id_(node_id),
      layout_(layout),
      index_(std::move(index)),
      leaf_count_(index_ != nullptr ? index_->tree().ComputeStats().leaves
                                    : 0) {
  ODYSSEY_CHECK(node_id >= 0 && node_id < layout.num_nodes());
  ODYSSEY_CHECK(index_ != nullptr);
  ODYSSEY_CHECK(index_->chunk()->global_ids().size() == index_->data().size());
}

NodeRuntime::~NodeRuntime() {
  JoinBatch();
  {
    MutexLock lock(&epoch_mu_);
    stopping_ = true;
  }
  epoch_cv_.SignalAll();
  if (comms_thread_.joinable()) comms_thread_.Join();
  if (main_thread_.joinable()) main_thread_.Join();
}

NodeBatchStats NodeRuntime::batch_stats() const {
  MutexLock lock(&stats_mu_);
  return batch_stats_;
}

bool NodeRuntime::EpochIdleLocked() const {
  return comms_epochs_done_ == epochs_started_ &&
         main_epochs_done_ == epochs_started_;
}

void NodeRuntime::NoteProtocolProgressLocked() {
  ++state_version_;
  state_cv_.SignalAll();
}

bool NodeRuntime::AllAssignmentsInLocked() const {
  return no_more_queries_ &&
         (transport_closed_ ||
          static_cast<int>(assigned_seen_.size()) >= expected_assignments_);
}

void NodeRuntime::EnsureExecutor() {
  const size_t want =
      static_cast<size_t>(std::max(1, options_.query_options.num_threads));
  // The pool grows to the widest batch seen and never shrinks; growth
  // spawns only the missing workers, so a wider batch pays exactly the
  // delta and an equal-or-narrower one pays nothing.
  if (workers_ == nullptr) {
    workers_ = std::make_unique<ThreadPool>(want);
  } else {
    workers_->Grow(want);
  }
  WarmExecutorScratch();
  if (!comms_thread_.joinable()) {
    comms_thread_ = CountedThread([this] { EpochThread(/*comms=*/true); });
    main_thread_ = CountedThread([this] { EpochThread(/*comms=*/false); });
  }
}

void NodeRuntime::WarmExecutorScratch() {
  // Each warm-up task spins on an arrival counter until all of them have
  // started, which forces the pool to hand exactly one task to each of its
  // `width` workers — a worker stuck in the spin cannot pick up a second
  // task, so every worker's thread-local scratch gets reserved. Plain
  // Submit + WaitIdle, deliberately not a TaskGroup: TaskGroup::Wait helps
  // from this thread, which would let the driver thread swallow a warm-up
  // task and leave one worker cold. WaitIdle only blocks.
  const size_t width = workers_->num_threads();
  const QueryOptions& query_options = options_.query_options;
  const size_t batches = query_options.EffectiveBatches();
  // What bounds one execution's queue count: its full queues hold TH
  // leaves each, and every TraverseBatch call (the claimer and at most
  // help_threshold helpers per batch) seals at most one partial queue.
  ODYSSEY_CHECK_MSG(query_options.queue_threshold >= 1,
                    "queue_threshold (TH) must be at least 1 leaf");
  const size_t traversals_per_batch =
      1 + static_cast<size_t>(std::max(0, query_options.help_threshold));
  const size_t queues = leaf_count_ / query_options.queue_threshold +
                        batches * traversals_per_batch;
  const size_t length = index_->data().length();
  if (width <= warmed_scratch_.width && batches <= warmed_scratch_.batches &&
      queues <= warmed_scratch_.queues && length <= warmed_scratch_.length) {
    return;
  }
  auto arrived = std::make_shared<std::atomic<size_t>>(0);
  for (size_t i = 0; i < width; ++i) {
    workers_->Submit([=] {
      QueryScratch::ForThisThread().Reserve(batches, queues);
      ReserveDtwScratch(length);
      arrived->fetch_add(1, std::memory_order_acq_rel);
      while (arrived->load(std::memory_order_acquire) < width) {
        // Spin until every warm-up task holds a distinct worker.
      }
    });
  }
  workers_->WaitIdle();
  warmed_scratch_ = {width, batches, queues, length};
}

void NodeRuntime::EpochThread(bool comms) {
  uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lock(&epoch_mu_);
      while (!stopping_ && epochs_started_ <= seen) epoch_cv_.Wait(&epoch_mu_);
      if (epochs_started_ == seen) return;  // stopping, nothing new to run
      seen = epochs_started_;
    }
    if (comms) {
      CommsLoop();
    } else {
      MainLoop();
    }
    {
      MutexLock lock(&epoch_mu_);
      (comms ? comms_epochs_done_ : main_epochs_done_) = seen;
    }
    epoch_cv_.SignalAll();
  }
}

void NodeRuntime::StartBatch(SimCluster* cluster,
                             const PreparedBatch* queries,
                             const NodeBatchOptions& options) {
  {
    MutexLock lock(&epoch_mu_);
    ODYSSEY_CHECK_MSG(EpochIdleLocked(),
                      "StartBatch while an epoch is still running");
  }
  cluster_ = cluster;
  queries_ = queries;
  options_ = options;
  {
    MutexLock lock(&stats_mu_);
    batch_stats_ = NodeBatchStats();
  }
  bsf_board_ = std::make_unique<std::atomic<float>[]>(queries->size());
  for (size_t q = 0; q < queries->size(); ++q) bsf_board_[q].store(kInf);
  {
    MutexLock lock(&state_mu_);
    assigned_.clear();
    assigned_seen_.clear();
    expected_assignments_ = -1;
    no_more_queries_ = false;
    transport_closed_ = false;
    dead_nodes_.clear();
    done_nodes_.clear();
    steal_replies_.clear();
  }
  steal_grants_.clear();  // comms-thread-owned; both loops are parked here
  steal_replies_sent_.clear();
  {
    MutexLock lock(&inflight_mu_);
    inflight_ = 0;
  }
  EnsureExecutor();
  {
    MutexLock lock(&epoch_mu_);
    ++epochs_started_;
  }
  epoch_cv_.SignalAll();
}

void NodeRuntime::JoinBatch() {
  MutexLock lock(&epoch_mu_);
  while (!EpochIdleLocked()) epoch_cv_.Wait(&epoch_mu_);
}

void NodeRuntime::CommsLoop() {
  // The comms thread doubles as the paper's work-stealing manager
  // (Algorithm 3) and as the keeper of the BSF book-keeping array
  // (Section 3.4): every received BSF improvement is folded into the
  // per-query cell that running executions prune against.
  // With a liveness deadline armed, this thread is also the node's
  // always-on heartbeat: the main thread can disappear into a
  // deadline-length scan (one DTW query is plenty under CPU starvation)
  // while this thread sits parked in Receive — total silence the
  // coordinator would misread as death, cascading a false verdict that
  // can strand a chunk with no live replica. Waking every few
  // milliseconds to ping turns "busy" back into a signal.
  const double hb_interval = options_.liveness_heartbeat_seconds;
  Stopwatch hb_watch;
  double last_heartbeat = 0.0;
  for (;;) {
    Message m;
    bool got;
    if (hb_interval > 0.0) {
      got = cluster_->mailbox(id_).ReceiveFor(
          std::chrono::milliseconds(5), &m);
      if (const double now = hb_watch.ElapsedSeconds();
          now - last_heartbeat >= hb_interval) {
        last_heartbeat = now;
        Message ping;
        ping.type = MessageType::kHeartbeat;
        ping.from = id_;
        cluster_->Send(cluster_->coordinator_id(), std::move(ping));
      }
      // ReceiveFor's false means deadline *or* closure; only closure ends
      // the loop.
      if (!got && !cluster_->mailbox(id_).closed()) continue;
    } else {
      got = cluster_->mailbox(id_).Receive(&m);
    }
    if (!got) {
      // Transport closed under us: this node was killed by the fault
      // injector. Wake the main thread out of every wait (it exits the
      // epoch quietly — a dead host announces nothing) and end the loop.
      MutexLock lock(&state_mu_);
      transport_closed_ = true;
      no_more_queries_ = true;
      NoteProtocolProgressLocked();
      return;
    }
    switch (m.type) {
      case MessageType::kShutdown: {
        // The coordinator has finalized the batch. Normally the main thread
        // has already terminated, but a node the coordinator falsely
        // declared dead can still be mid-loop — e.g. blocked in NextQuery()
        // on a kQueryRequest reply the (quiesced) coordinator will never
        // send. Treat shutdown like transport closure: wake the main thread
        // out of every wait so the epoch can end. Exactness is unaffected —
        // a declared-dead node's queries were all re-dispatched to
        // survivors, whose recovery answers the coordinator has fenced.
        MutexLock lock(&state_mu_);
        transport_closed_ = true;
        no_more_queries_ = true;
        NoteProtocolProgressLocked();
        return;
      }
      case MessageType::kAssignQuery: {
        MutexLock lock(&state_mu_);
        // Dedup by query id: the coordinator assigns a query to a node at
        // most once, so a repeat is an injector duplicate — executing it
        // twice wastes work and double-counting it would satisfy the
        // assignment fence early.
        if (assigned_seen_.insert(m.query_id).second) {
          assigned_.push_back(m.query_id);
        }
        state_cv_.SignalAll();
        break;
      }
      case MessageType::kNoMoreQueries: {
        MutexLock lock(&state_mu_);
        no_more_queries_ = true;
        // Counts only grow (a dynamic coordinator can answer duplicated
        // requests with markers stamped at different times), so keep the
        // largest fence seen.
        expected_assignments_ = std::max(expected_assignments_,
                                         m.assign_count);
        state_cv_.SignalAll();
        break;
      }
      case MessageType::kBsfUpdate:
        AtomicFetchMinFloat(&bsf_board_[m.query_id], m.bsf);
        break;
      case MessageType::kDone: {
        MutexLock lock(&state_mu_);
        done_nodes_.insert(m.from);
        NoteProtocolProgressLocked();  // a peer finished
        break;
      }
      case MessageType::kStealRequest:
        HandleStealRequest(m.from, m.steal_seq);
        break;
      case MessageType::kStealReply: {
        MutexLock lock(&state_mu_);
        steal_replies_.push_back(std::move(m));
        NoteProtocolProgressLocked();  // a reply landed
        break;
      }
      case MessageType::kNodeDead:
        HandleNodeDead(m.subject);
        break;
      case MessageType::kRecoverQuery:
        ExecuteRecoveryQuery(m.query_id);
        break;
      case MessageType::kQueryRequest:
      case MessageType::kLocalAnswer:
      case MessageType::kNodeTerminated:
      case MessageType::kNodeDeadAck:
      case MessageType::kHeartbeat:
        break;  // coordinator-bound messages never arrive here
    }
  }
}

void NodeRuntime::HandleNodeDead(int subject) {
  if (subject == id_) return;  // a false verdict about us; keep working
  {
    MutexLock lock(&state_mu_);
    dead_nodes_.insert(subject);
    done_nodes_.insert(subject);
    NoteProtocolProgressLocked();  // the steal loop must re-plan
  }
  // Re-run every RS-batch granted to the dead thief. The batches left this
  // node's coverage at grant time (StealBatches), so with the thief gone
  // they would run nowhere and the query's answer would silently miss
  // candidates. Running them here on the comms thread delays message
  // handling, which is safe: senders never block, and thieves waiting on
  // our steal replies wait with timeouts.
  uint64_t reassigned = 0;
  for (StealGrant& grant : steal_grants_) {
    if (grant.thief != subject || grant.batch_ids.empty()) continue;
    Message replay;
    replay.type = MessageType::kStealReply;
    replay.from = id_;
    replay.query_id = grant.query_id;
    replay.bsf = bsf_board_[grant.query_id].load(std::memory_order_acquire);
    replay.batch_ids = grant.batch_ids;
    reassigned += grant.batch_ids.size();
    grant.batch_ids.clear();  // never re-run twice
    RunStolenWork(replay);
  }
  if (reassigned > 0) fault_stats::CountBatchesReassigned(reassigned);
  Message ack;
  ack.type = MessageType::kNodeDeadAck;
  ack.from = id_;
  ack.subject = subject;
  cluster_->Send(cluster_->coordinator_id(), std::move(ack));
}

void NodeRuntime::ExecuteRecoveryQuery(int query_id) {
  Stopwatch watch;
  // Share the BSF cell (stolen work may have already tightened it) but do
  // not broadcast improvements: the group is terminating and the cells die
  // with the batch — correctness never depends on BSF sharing.
  std::atomic<float>* cell =
      options_.share_bsf ? &bsf_board_[query_id] : nullptr;
  QueryExecution exec(index_.get(), queries_->query(query_id),
                      options_.query_options, cell, nullptr);
  SeedExecution(&exec);
  exec.Run(workers_.get());
  SendLocalAnswer(query_id, exec.results().SortedResults(),
                  /*recovery=*/true);
  {
    MutexLock lock(&stats_mu_);
    ++batch_stats_.queries_executed;
    batch_stats_.busy_seconds += watch.ElapsedSeconds();
  }
}

void NodeRuntime::HandleStealRequest(int thief, int steal_seq) {
  // Algorithm 3: give away up to Nsend RS-batches of a running query that
  // satisfy the Take-Away property; always reply (an empty reply tells the
  // thief to look elsewhere). With in-flight admission several own queries
  // can be running — the first with stealable batches feeds the thief.
  //
  // Duplicate fence first: a network-duplicated request must not mint a
  // *second* grant under the same seq. The thief retires the seq on the
  // first reply it consumes, so a surprise second grant could arrive after
  // the thief terminated and its batches would run nowhere. Re-sending the
  // original reply verbatim is safe — re-running the same batches is
  // idempotent under MergeAnswers' dedup-by-id.
  const auto key = std::make_pair(thief, steal_seq);
  if (auto it = steal_replies_sent_.find(key);
      it != steal_replies_sent_.end()) {
    Message resend = it->second;
    cluster_->Send(thief, std::move(resend));
    return;
  }
  Message reply;
  reply.type = MessageType::kStealReply;
  reply.from = id_;
  reply.steal_seq = steal_seq;  // retire exactly the request we answer
  if (options_.worksteal.enabled) {
    MutexLock lock(&exec_mu_);
    for (auto& [query_id, exec] : running_execs_) {
      std::vector<int> ids = exec->StealBatches(options_.worksteal.nsend);
      if (ids.empty()) continue;
      reply.query_id = query_id;
      reply.bsf = bsf_board_[query_id].load(std::memory_order_acquire);
      // Ledger the grant before the ids move into the reply: if the thief
      // dies, HandleNodeDead re-runs them from here (both on this thread).
      steal_grants_.push_back({thief, query_id, ids});
      reply.batch_ids = std::move(ids);
      {
        // exec_mu_ -> stats_mu_ is the one sanctioned nesting (see the
        // header's discipline note). The give-away count used to be
        // written under exec_mu_ alone — a different mutex than every
        // other batch_stats_ writer, the kind of split-brain guard the
        // thread-safety analysis now rejects at compile time.
        MutexLock stats(&stats_mu_);
        batch_stats_.batches_given_away +=
            static_cast<int>(reply.batch_ids.size());
      }
      break;
    }
  }
  steal_replies_sent_.emplace(key, reply);  // fence before the send
  cluster_->Send(thief, std::move(reply));
}

int NodeRuntime::NextQuery() {
  if (PolicyIsDynamic(options_.policy)) {
    // DQS: request a query from the coordinator, then wait for the reply.
    Message request;
    request.type = MessageType::kQueryRequest;
    request.from = id_;
    cluster_->Send(cluster_->coordinator_id(), std::move(request));
  }
  MutexLock lock(&state_mu_);
  while (assigned_.empty() && !AllAssignmentsInLocked()) {
    state_cv_.Wait(&state_mu_);
  }
  if (!assigned_.empty()) {
    const int qid = assigned_.front();
    assigned_.pop_front();
    return qid;
  }
  return -1;
}

void NodeRuntime::MainLoop() {
  // Algorithm 1: answer assigned queries — one at a time in the paper's
  // batch model, or up to max_inflight concurrently on the pool when the
  // streaming path admits queries faster than they finish...
  const int max_inflight = std::max(1, options_.max_inflight);
  const bool concurrent = max_inflight > 1;
  std::unique_ptr<TaskGroup> inflight_group;
  if (concurrent) inflight_group = std::make_unique<TaskGroup>(workers_.get());
  for (;;) {
    const int qid = NextQuery();
    if (qid < 0) break;
    if (!concurrent) {
      ExecuteQuery(qid);
      continue;
    }
    {
      // Admission control: claim an in-flight slot before asking the
      // coordinator for more work.
      MutexLock lock(&inflight_mu_);
      while (inflight_ >= max_inflight) inflight_cv_.Wait(&inflight_mu_);
      ++inflight_;
      {
        MutexLock stats(&stats_mu_);
        batch_stats_.inflight_hwm =
            std::max(batch_stats_.inflight_hwm, inflight_);
      }
      executor_stats::RecordQueriesInFlight(static_cast<uint64_t>(inflight_));
    }
    inflight_group->Submit([this, qid] {
      ExecuteQuery(qid);
      MutexLock lock(&inflight_mu_);
      --inflight_;
      inflight_cv_.SignalAll();
    });
  }
  if (inflight_group != nullptr) inflight_group->Wait();
  {
    MutexLock stats(&stats_mu_);
    batch_stats_.inflight_hwm = std::max(batch_stats_.inflight_hwm,
                                         batch_stats_.queries_executed > 0 ? 1 : 0);
  }
  // ... then announce completion to every node and start stealing. A node
  // whose transport was closed (killed mid-batch) exits the epoch quietly
  // instead: a dead host announces nothing, and the coordinator's liveness
  // deadline — not a protocol message — is what detects it.
  {
    MutexLock lock(&state_mu_);
    if (transport_closed_) return;
  }
  Message done;
  done.type = MessageType::kDone;
  done.from = id_;
  cluster_->Broadcast(done, /*except=*/id_);
  {
    MutexLock lock(&state_mu_);
    done_nodes_.insert(id_);
  }
  PerformWorkStealing();
  {
    MutexLock lock(&state_mu_);
    if (transport_closed_) return;
  }
  Message terminated;
  terminated.type = MessageType::kNodeTerminated;
  terminated.from = id_;
  cluster_->Send(cluster_->coordinator_id(), std::move(terminated));
}

void NodeRuntime::ExecuteQuery(int query_id) {
  Stopwatch watch;
  std::atomic<float>* cell =
      options_.share_bsf ? &bsf_board_[query_id] : nullptr;
  QueryExecution exec(index_.get(), queries_->query(query_id),
                      options_.query_options, cell, BsfBroadcaster(query_id));
  SeedExecution(&exec);
  {
    MutexLock lock(&exec_mu_);
    running_execs_.push_back({query_id, &exec});
  }
  exec.Run(workers_.get());
  {
    MutexLock lock(&exec_mu_);
    for (auto it = running_execs_.begin(); it != running_execs_.end(); ++it) {
      if (it->second == &exec) {
        running_execs_.erase(it);
        break;
      }
    }
  }
  SendLocalAnswer(query_id, exec.results().SortedResults());
  {
    MutexLock lock(&stats_mu_);
    ++batch_stats_.queries_executed;
    batch_stats_.busy_seconds += watch.ElapsedSeconds();
  }
}

void NodeRuntime::SeedExecution(QueryExecution* exec) const {
  const float initial_bsf = exec->SeedInitialBsf();
  if (options_.threshold_model != nullptr &&
      options_.threshold_model->calibrated()) {
    exec->set_queue_threshold(
        options_.threshold_model->PredictThreshold(initial_bsf));
  }
}

std::function<void(float)> NodeRuntime::BsfBroadcaster(int query_id) const {
  if (!options_.share_bsf) return nullptr;
  return [this, query_id](float threshold) {
    Message update;
    update.type = MessageType::kBsfUpdate;
    update.from = id_;
    update.query_id = query_id;
    update.bsf = threshold;
    cluster_->Broadcast(update, /*except=*/id_);
  };
}

void NodeRuntime::PerformWorkStealing() {
  // Algorithm 4: while some group peer is still working, pick one at random,
  // request work, and run whatever RS-batches it gives away.
  //
  // Failure-model hardening on top of the paper's loop: seq-keyed
  // per-victim outstanding-reply accounting (a batch-carrying reply that
  // is merely delayed must be waited out — its RS-batches run nowhere
  // else — and a duplicated reply must not retire a request it did not
  // answer), reply timeouts with a consecutive-timeout bound on *starting
  // new* steal attempts, and write-off of replies owed by peers the
  // coordinator declared dead (their queries are re-run wholesale, which
  // also covers whatever their in-flight replies granted).
  if (!options_.worksteal.enabled || layout_.replication_degree() <= 1) {
    return;
  }
  const std::vector<int> group = layout_.GroupMembers(layout_.GroupOf(id_));
  uint64_t rng_state = options_.seed ^ (0x9E3779B97f4A7C15ULL * (id_ + 1));
  const int timeout_us = options_.worksteal.reply_timeout_us;
  const int max_timeouts = options_.worksteal.max_reply_timeouts;
  // Outstanding request seqs per victim. Seq-keyed (not counted) so an
  // injector-duplicated reply retires its own request exactly once — a
  // counter would let the duplicate of an *empty* reply pay the debt of a
  // later *batch-carrying* one, and the thief would walk away from
  // RS-batches that then run nowhere.
  std::vector<std::set<int>> outstanding(
      static_cast<size_t>(layout_.num_nodes()));
  int next_steal_seq = 0;
  int consecutive_timeouts = 0;
  // The whole steal phase talks only to peers — the coordinator hears
  // nothing from this node until kNodeTerminated. Under a short liveness
  // deadline that silence reads as death and can cascade into declaring
  // every busy thief dead, so ping the coordinator while the phase lasts.
  // (The comms thread pings too, but it can be busy re-running recovery
  // work on behalf of a dead peer — two pingers keep every window short.)
  Stopwatch heartbeat_watch;
  double last_heartbeat = 0.0;
  const double kHeartbeatIntervalSeconds =
      options_.liveness_heartbeat_seconds > 0.0
          ? options_.liveness_heartbeat_seconds
          : std::numeric_limits<double>::infinity();
  for (;;) {
    const double hb_now = heartbeat_watch.ElapsedSeconds();
    if (hb_now - last_heartbeat >= kHeartbeatIntervalSeconds) {
      last_heartbeat = hb_now;
      Message ping;
      ping.type = MessageType::kHeartbeat;
      ping.from = id_;
      cluster_->Send(cluster_->coordinator_id(), std::move(ping));
    }
    std::vector<int> peers;
    // Outstanding replies are *debts*: a victim that granted us RS-batches
    // removed them from its own answer at grant time, so a batch-carrying
    // reply we never consume is coverage that runs nowhere. Hence the one
    // hard rule of this loop: never terminate while a reply is outstanding
    // from a peer that is not declared dead. A live peer's reply always
    // arrives (HandleStealRequest replies unconditionally, answers are
    // never dropped, and a parked Receive force-flushes held messages), no
    // matter how long the injector delays it or how starved the comms
    // thread is — the wait below is woken by its arrival. A peer declared
    // dead has its debts written off: if it really died the coordinator
    // re-runs every query it was dispatched, and if the verdict was false
    // the same re-runs cover the batches its in-flight reply carried,
    // since StealBatches only ever grants from the victim's own queries.
    // The timeout budget bounds *starting new* steal attempts, not the
    // consumption of debts already incurred.
    int pending_active = 0;
    int pending_parked = 0;
    {
      MutexLock lock(&state_mu_);
      if (transport_closed_) return;  // this node was killed; fall silent
      for (int n : group) {
        if (n == id_) continue;
        if (dead_nodes_.count(n) != 0) continue;  // debts written off
        const int owed =
            static_cast<int>(outstanding[static_cast<size_t>(n)].size());
        if (done_nodes_.count(n) == 0) {
          peers.push_back(n);
          pending_active += owed;
        } else {
          pending_parked += owed;
        }
      }
    }
    const bool retries_left =
        max_timeouts <= 0 || consecutive_timeouts < max_timeouts;
    if (pending_active == 0 && pending_parked == 0 &&
        (peers.empty() || !retries_left)) {
      return;
    }
    if (pending_active + pending_parked == 0 && !peers.empty() &&
        retries_left) {
      const int victim = ChooseStealVictim(peers, &rng_state);
      {
        MutexLock lock(&stats_mu_);
        ++batch_stats_.steal_attempts;
      }
      Message request;
      request.type = MessageType::kStealRequest;
      request.from = id_;
      request.steal_seq = next_steal_seq;
      outstanding[static_cast<size_t>(victim)].insert(next_steal_seq);
      ++next_steal_seq;
      cluster_->Send(victim, std::move(request));
    }
    Message reply;
    bool have_reply = false;
    bool timed_out = false;
    {
      MutexLock lock(&state_mu_);
      const uint64_t seen = state_version_;
      const auto deadline =
          std::chrono::steady_clock::now() +
          (timeout_us > 0 ? std::chrono::microseconds(timeout_us)
                          // "Forever", expressed as a deadline so the wait
                          // below stays one code path.
                          : std::chrono::microseconds(int64_t{3600000000}));
      // Also wake on state_version_ (a peer finishing or dying) so a
      // verdict about our victim re-plans the loop instead of waiting out
      // the full timeout — essential when timeout_us is 0.
      while (steal_replies_.empty() && !transport_closed_ &&
             state_version_ == seen) {
        if (state_cv_.WaitUntil(&state_mu_, deadline)) {
          timed_out = steal_replies_.empty();
          break;
        }
      }
      if (!steal_replies_.empty()) {
        reply = std::move(steal_replies_.front());
        steal_replies_.pop_front();
        have_reply = true;
      } else if (transport_closed_) {
        return;
      }
    }
    if (!have_reply) {
      if (timed_out) {
        ++consecutive_timeouts;
        fault_stats::CountStealTimeout();
      }
      continue;  // re-plan: peers/dead sets may have changed
    }
    consecutive_timeouts = 0;
    if (reply.from >= 0 && reply.from < layout_.num_nodes()) {
      // Retires exactly the request this reply answers; the second copy of
      // a duplicated reply finds its seq already erased and retires
      // nothing.
      outstanding[static_cast<size_t>(reply.from)].erase(reply.steal_seq);
    }
    if (reply.batch_ids.empty()) {
      // Timed back-off before retrying another victim — but woken early by
      // the comms thread on protocol progress (a peer finishing, a reply
      // landing) instead of sleeping blind, so an idle node reacts to
      // mailbox arrivals immediately and burns no CPU in between.
      MutexLock lock(&state_mu_);
      const uint64_t seen = state_version_;
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.worksteal.retry_backoff_us);
      while (state_version_ == seen) {
        if (state_cv_.WaitUntil(&state_mu_, deadline)) break;
      }
      continue;
    }
    {
      MutexLock lock(&stats_mu_);
      ++batch_stats_.successful_steals;
    }
    // Stolen work draws from the same admission budget as
    // the node's own queries: claim an in-flight slot for the re-run so
    // inflight_/the high-water mark account for every unit of work the
    // pool executes. The wait never stalls in practice — stealing starts
    // after the node's own queries drained — but the invariant (at most
    // max_inflight concurrent work items) is enforced, not assumed.
    {
      MutexLock lock(&inflight_mu_);
      const int budget = std::max(1, options_.max_inflight);
      while (inflight_ >= budget) inflight_cv_.Wait(&inflight_mu_);
      ++inflight_;
      {
        MutexLock stats(&stats_mu_);
        batch_stats_.inflight_hwm =
            std::max(batch_stats_.inflight_hwm, inflight_);
      }
      executor_stats::RecordQueriesInFlight(static_cast<uint64_t>(inflight_));
    }
    RunStolenWork(reply);
    {
      MutexLock lock(&inflight_mu_);
      --inflight_;
      inflight_cv_.SignalAll();
    }
  }
}

void NodeRuntime::RunStolenWork(const Message& reply) {
  Stopwatch watch;
  const int query_id = reply.query_id;
  AtomicFetchMinFloat(&bsf_board_[query_id], reply.bsf);
  // The stolen query's summaries come from the same batch-level prepared
  // artifact the victim used — a steal costs no re-summarization — and the
  // stolen phases run on the same persistent pool (idle by now: stealing
  // only starts after the node's own queries finished).
  QueryExecution exec(index_.get(), queries_->query(query_id),
                      options_.query_options, &bsf_board_[query_id],
                      BsfBroadcaster(query_id));
  SeedExecution(&exec);
  exec.RunBatchSubset(reply.batch_ids, workers_.get());
  {
    MutexLock lock(&stats_mu_);
    batch_stats_.batches_stolen_run +=
        static_cast<int>(reply.batch_ids.size());
  }
  SendLocalAnswer(query_id, exec.results().SortedResults());
  {
    MutexLock lock(&stats_mu_);
    batch_stats_.busy_seconds += watch.ElapsedSeconds();
  }
}

void NodeRuntime::SendLocalAnswer(int query_id,
                                  const std::vector<Neighbor>& local,
                                  bool recovery) {
  Message answer;
  answer.type = MessageType::kLocalAnswer;
  answer.from = id_;
  answer.query_id = query_id;
  answer.recovery = recovery;
  answer.neighbors.reserve(local.size());
  const std::vector<uint32_t>& global_ids = index_->chunk()->global_ids();
  for (const Neighbor& n : local) {
    answer.neighbors.push_back({n.squared_distance, global_ids[n.id]});
  }
  cluster_->Send(cluster_->coordinator_id(), std::move(answer));
}

}  // namespace odyssey
