// serve_mix: an in-process serve::Server (2 worker threads, cache capacity 2)
// over an archive of 4 models of the benchmark's shape.  Model popularity is
// skewed, so a few requests miss the cache; requests carry 160-atom frames,
// mostly one per request and some 4-frame batches.  One generator thread
// sends pre-encoded requests over 4 loopback connections.  The run is a
// sequence of rounds; each round sends a seeded Poisson schedule at two fixed
// rates (open loop), then lets 4 connections each keep one request in flight
// (closed loop) to measure capacity.  Interleaving the three segments makes
// each metric sample the whole run rather than one stretch of it.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dp/archive.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "hpc/net/frame.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

// Fixed open-loop rates (requests/s): about 40% and 80% of the ~105 req/s
// the closed-loop phase measures on the reference machine (4 cores).
constexpr double kLowRate = 40.0;
constexpr double kHighRate = 80.0;
// One round: kLowPerRound requests at kLowRate (1 s), kHighPerRound at
// kHighRate (0.5 s), then kClosedPerRound in the closed loop (0.5-0.9 s),
// each segment answered in full before the next starts; about kRoundSeconds
// in all.  30 s gives 14 rounds, 560 requests per open-loop rate, which
// leaves 28 samples beyond p95; p99 would need 1000 per rate, 25 s at the
// low rate alone.
constexpr std::size_t kLowPerRound = 40;
constexpr std::size_t kHighPerRound = 40;
constexpr std::size_t kClosedPerRound = 100;
constexpr double kRoundSeconds = 2.2;

namespace {

using namespace dpho;

constexpr std::size_t kModels = 4;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSetupReps = 3;
constexpr std::uint64_t kSentinel = 9007199254740991ULL;  // 2^53 - 1
// The traffic mix is an assumption: no published deployment description and
// no client in this repository gives one.  Each number drives gated metrics:
//   * kPopularity, requests per model in every block of 100, sets the cache
//     misses at capacity 2 of 4 models; each miss is a model load (tail_ms)
//     and grows the server's memory (peak_rss_mb);
//   * kBatchEvery, one request in that many is a kBatchFrames-frame batch,
//     sets the frames per request (throughput_per_s, p50_ms, tail_ms);
//   * kTemplatesPerModel only spreads the served frames.
// Every run prints the cache hit rate and batch share that result.
constexpr std::size_t kPopularity[kModels] = {80, 17, 2, 1};
constexpr std::size_t kBatchEvery = 8;
constexpr std::size_t kBatchFrames = 4;
constexpr std::size_t kTemplatesPerModel = 16;
/// Shuffles the blocks of 100, so every run has the same model sequence.
constexpr std::uint64_t kDeckSeed = 0xDEC4;

/// One pre-encoded request with its expected reply, both carrying the
/// sentinel id that with_id() replaces.
struct Template {
  std::string model;
  std::size_t frames = 0;
  std::string request;
  std::string reply;
};

std::string with_id(const std::string& text, std::uint64_t id) {
  static const std::string key = "\"id\":" + std::to_string(kSentinel);
  const std::size_t at = text.find(key);
  return text.substr(0, at) + "\"id\":" + std::to_string(id) +
         text.substr(at + key.size());
}

std::uint64_t id_of(const std::string& payload) {
  const std::size_t at = payload.find("\"id\":");
  return at == std::string::npos
             ? 0
             : std::strtoull(payload.c_str() + at + 5, nullptr, 10);
}

/// Segments of a round.
enum Phase : std::size_t { kOpenLow, kOpenHigh, kClosed, kPhases };

/// A sent request and what came back.
struct Record {
  std::size_t tmpl = 0;
  std::size_t conn = 0;
  std::size_t phase = kOpenLow;
  Timed time;
  std::string payload;
};

/// Four loopback connections and one receiver thread that stamps replies.
/// During a closed-loop segment the receiver immediately sends the next
/// request on the connection that just answered.
class Client {
 public:
  Client(std::uint16_t port, std::vector<Record>& records,
         const std::vector<Template>& templates)
      : records_(records), templates_(templates) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds_.push_back(hpc::net::connect_loopback(port));
      hpc::net::set_nonblocking(fds_.back());  // FrameReader::drain needs it
    }
    readers_.resize(kConnections);
  }
  ~Client() {
    stop_receiver();
    for (const int fd : fds_) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void start_receiver() {
    stop_ = false;
    receiver_ = std::thread([this] { receive_loop(); });
  }
  void stop_receiver() {
    stop_ = true;
    if (receiver_.joinable()) receiver_.join();
  }

  /// Sends record `id` (its template and connection already set).
  void send(std::uint64_t id) {
    Record& r = records_[id];
    const std::string text = with_id(templates_[r.tmpl].request, id);
    r.time.sent = now_s();
    if (!hpc::net::write_frame(fds_[r.conn], text)) r.time.sent = -1.0;
  }

  /// Starts a closed-loop segment over records [lo, hi): sends the first
  /// one per connection; each reply then triggers the next until `hi`.
  void start_closed(std::uint64_t lo, std::uint64_t hi) {
    next_id_ = lo + kConnections;
    end_id_ = hi;
    for (std::size_t c = 0; c < kConnections; ++c) {
      records_[lo + c].conn = c;
      send(lo + c);
    }
  }
  /// Ends the segment; call once all of its replies are in.
  void stop_closed() { end_id_ = 0; }

  std::size_t received() const { return received_.load(); }
  bool failed() const { return failed_.load(); }

 private:
  void receive_loop() {
    try {
      receive();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_mix: receiver stopped: %s\n", e.what());
      failed_ = true;
    }
  }

  void receive() {
    std::vector<pollfd> fds;
    for (const int fd : fds_) fds.push_back({fd, POLLIN, 0});
    while (!stop_) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if (fds[c].revents == 0) continue;
        // A closed or broken connection is dropped from the poll set; its
        // unanswered requests count as failed.
        if (!readers_[c].drain(fds[c].fd)) fds[c].fd = -1;
        while (std::optional<std::string> frame = readers_[c].next()) {
          const double t = now_s();
          const std::uint64_t id = id_of(*frame);
          if (id < records_.size()) {
            records_[id].time.reply = t;
            records_[id].payload = std::move(*frame);
          }
          if (next_id_.load() < end_id_.load()) {
            const std::uint64_t next = next_id_.fetch_add(1);
            records_[next].conn = c;
            send(next);
          }
          received_.fetch_add(1);
        }
      }
    }
  }

  std::vector<Record>& records_;
  const std::vector<Template>& templates_;
  std::vector<int> fds_;
  std::vector<hpc::net::FrameReader> readers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<std::size_t> received_{0};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> end_id_{0};
  std::thread receiver_;  // last: it uses every member above
};

/// The pre-encoded requests of one seed over the frames, each with the reply
/// that dp::Potential::evaluate of the archive's model gives.
std::vector<Template> make_templates(const std::filesystem::path& archive_dir,
                                     const md::FrameDataset& frames,
                                     std::uint64_t seed) {
  const dp::ModelArchive archive = dp::ModelArchive::open(archive_dir);
  std::vector<dp::Potential> potentials;
  for (std::size_t m = 0; m < kModels; ++m) {
    potentials.push_back(archive.load("m" + std::to_string(m)));
  }
  util::Rng rng(seed ^ 0x5E7BE);
  std::vector<Template> templates;
  for (std::size_t t = 0; t < kModels * kTemplatesPerModel; ++t) {
    const std::size_t m = t / kTemplatesPerModel;
    serve::EvalRequest request;
    request.id = kSentinel;
    request.model = "m" + std::to_string(m);
    request.want_forces = true;
    // Templates are used round-robin, so one request in kBatchEvery is a batch.
    const std::size_t batch = t % kBatchEvery == kBatchEvery - 1 ? kBatchFrames : 1;
    serve::EvalReply reply;
    reply.id = kSentinel;
    reply.model = request.model;
    for (std::size_t f = 0; f < batch; ++f) {
      const md::Frame& frame = frames.frame(
          static_cast<std::size_t>(rng.uniform_int(0, frames.size() - 1)));
      md::Frame bare;
      bare.positions = frame.positions;
      bare.box_length = frame.box_length;
      const md::ForceEnergy result = potentials[m].evaluate(bare);
      reply.energies.push_back(result.energy);
      std::vector<double> flat;
      for (const md::Vec3& v : result.forces) {
        flat.insert(flat.end(), {v[0], v[1], v[2]});
      }
      reply.forces.push_back(std::move(flat));
      request.frames.push_back(std::move(bare));
    }
    templates.push_back({request.model, batch,
                         serve::encode_eval_request(request).dump(),
                         serve::encode_eval_reply(reply).dump()});
  }
  return templates;
}

/// The template of every request of the run: models dealt from shuffled
/// blocks of 100 with the kPopularity counts, and each model's templates
/// used round-robin in a seeded order.  The model sequence comes from the
/// fixed kDeckSeed, so every run has the same cache misses (each costs a
/// model load and grows the daemon's memory); --seed picks the frames and
/// the template order.
std::vector<std::size_t> deal_requests(std::size_t count, std::uint64_t seed) {
  util::Rng deck(kDeckSeed);
  util::Rng rng(seed ^ 0x0BE7);
  std::vector<std::size_t> block;
  for (std::size_t m = 0; m < kModels; ++m) block.insert(block.end(), kPopularity[m], m);
  std::vector<std::vector<std::size_t>> order(kModels);
  std::vector<std::size_t> used(kModels, 0);
  for (auto& o : order) o = rng.permutation(kTemplatesPerModel);
  std::vector<std::size_t> out;
  while (out.size() < count) {
    const std::vector<std::size_t> perm = deck.permutation(block.size());
    for (std::size_t i = 0; i < perm.size() && out.size() < count; ++i) {
      const std::size_t m = block[perm[i]];
      out.push_back(m * kTemplatesPerModel +
                    order[m][used[m]++ % kTemplatesPerModel]);
    }
  }
  return out;
}

/// Upper bound of the histogram bucket holding quantile `q`.
double bucket_bound(const obs::HistogramSnapshot& h, double q) {
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    seen += h.counts[b];
    if (static_cast<double>(seen) >= q * static_cast<double>(h.count)) {
      return b < h.layout.upper_bounds.size() ? h.layout.upper_bounds[b] : h.max;
    }
  }
  return h.max;
}

/// Waits until `client` has seen `count` replies or `timeout` seconds pass.
void await_replies(const Client& client, std::size_t count, double timeout) {
  const double deadline = now_s() + timeout;
  while (client.received() < count && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

struct PhaseResult {
  std::string name;
  std::size_t sent = 0, answered = 0, failed = 0, wrong = 0;
  std::size_t frames = 0;
  std::vector<double> latency, late;
};

/// Classifies the records of `phase` over all rounds: answered (byte-equal
/// to the expected reply), failed (error reply or none), or wrong (a result
/// that differs).
PhaseResult tally(const std::string& name, const std::vector<Record>& records,
                  const std::vector<Template>& templates, std::size_t phase) {
  PhaseResult p;
  p.name = name;
  std::vector<Timed> sent, answered;
  for (std::size_t id = 0; id < records.size(); ++id) {
    const Record& r = records[id];
    if (r.phase != phase) continue;
    ++p.sent;
    if (r.time.sent < 0.0) {  // the connection refused the write
      ++p.failed;
      continue;
    }
    sent.push_back(r.time);
    if (r.time.reply < 0.0) {
      ++p.failed;
    } else if (r.payload == with_id(templates[r.tmpl].reply, id)) {
      ++p.answered;
      p.frames += templates[r.tmpl].frames;
      answered.push_back(r.time);
    } else if (serve::message_type(util::Json::parse(r.payload)) ==
               serve::kMsgError) {
      ++p.failed;
    } else {
      ++p.wrong;
    }
  }
  p.late = lateness(sent);
  p.latency = due_latencies(answered);
  return p;
}

/// Frames per second a closed-loop segment, records [lo, hi), answered while
/// every connection had a request in flight: from its kConnections-th reply
/// to the reply that left fewer than kConnections outstanding.
double closed_rate(const std::vector<Record>& records,
                   const std::vector<Template>& templates, std::size_t lo,
                   std::size_t hi) {
  std::vector<std::pair<double, std::size_t>> replies;
  for (std::size_t id = lo; id < hi; ++id) {
    if (records[id].time.reply >= 0.0) {
      replies.emplace_back(records[id].time.reply, templates[records[id].tmpl].frames);
    }
  }
  if (replies.size() <= 2 * kConnections) return 0.0;
  std::sort(replies.begin(), replies.end());
  const std::size_t first = kConnections - 1;
  const std::size_t last = replies.size() - kConnections;
  std::size_t frames = 0;
  for (std::size_t i = first + 1; i <= last; ++i) frames += replies[i].second;
  return static_cast<double>(frames) / (replies[last].first - replies[first].first);
}

}  // namespace

void build_serve_archive(const std::filesystem::path& dir,
                         const md::FrameDataset& frames) {
  dp::ModelArchive archive = dp::ModelArchive::create(dir);
  for (std::size_t m = 0; m < kModels; ++m) {
    const dp::DeepPotModel model(model_shape(6.0, 3.0), frames.types(),
                                 frames.mean_energy_per_atom(), kModelSeed * 31 + m);
    archive.add("m" + std::to_string(m), model,
                {{"rmse_f_val", 0.1 * static_cast<double>(m + 1)}});
  }
}

Outcome run_serve_mix(const Args& args, Tracer& tracer) {
  Outcome out;
  const std::filesystem::path dir = work_dir("serve_mix");

  // ---- set-up: frames once, then archive + server start + warm-up, timed
  // several times; the last server stays up.  The expected replies come from
  // the first archive, between its build and its server start.
  double t0 = now_s();
  const md::FrameDataset frames = make_frames(args.seed, 24);
  double gen_s = now_s() - t0;
  std::vector<Template> templates;
  std::vector<double> server_setup;
  std::unique_ptr<serve::Server> server;
  std::vector<Record> warm(kModels);
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    t0 = now_s();
    server.reset();
    const std::filesystem::path archive_dir = dir / ("archive" + std::to_string(r));
    build_serve_archive(archive_dir, frames);
    double rep_s = now_s() - t0;
    if (r == 0) {
      t0 = now_s();
      templates = make_templates(archive_dir, frames, args.seed);
      gen_s += now_s() - t0;
    }
    t0 = now_s();
    server = std::make_unique<serve::Server>(serve::ServerOptions{
        .archive_dir = archive_dir, .cache_capacity = 2, .threads = 2});
    server->start();
    // Warm-up: one request per model through a throwaway client.
    Client client(server->port(), warm, templates);
    client.start_receiver();
    for (std::size_t m = 0; m < kModels; ++m) {
      warm[m] = Record{};
      warm[m].tmpl = m * kTemplatesPerModel;
      warm[m].conn = m % kConnections;
      client.send(m);
    }
    await_replies(client, kModels, 30.0);
    server_setup.push_back(rep_s + now_s() - t0);
  }
  obs::metrics().reset();

  // ---- the run's requests, dealt in rounds of an open-loop segment at each
  // rate and a closed-loop segment.
  const std::size_t rounds = std::max<std::size_t>(
      5, static_cast<std::size_t>(std::lround(args.seconds / kRoundSeconds)));
  const std::size_t per_round = kLowPerRound + kHighPerRound + kClosedPerRound;
  const std::size_t total = rounds * per_round;
  const std::vector<std::size_t> dealt = deal_requests(total, args.seed);
  std::vector<Record> records(total);
  std::size_t batched = 0;
  for (std::size_t i = 0; i < total; ++i) {
    records[i].tmpl = dealt[i];
    if (templates[dealt[i]].frames > 1) ++batched;
  }
  // The cache's counters include the warm-up; the run's share is the rest.
  const double warm_hits = static_cast<double>(server->cache().hits());
  const double warm_misses = static_cast<double>(server->cache().misses());
  Client client(server->port(), records, templates);
  client.start_receiver();

  const double rates[2] = {kLowRate, kHighRate};
  const std::size_t counts[2] = {kLowPerRound, kHighPerRound};
  std::vector<double> closed_rates;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::size_t lo = round * per_round;
    for (std::size_t ph = kOpenLow; ph <= kOpenHigh; ++ph) {
      const std::vector<double> due =
          poisson_schedule(rates[ph], counts[ph], (args.seed << 20) + 2 * round + ph);
      const double start = now_s() + 0.01;
      for (std::size_t i = 0; i < counts[ph]; ++i) {
        Record& r = records[lo + i];
        r.phase = ph;
        r.time.due = start + due[i];
        r.conn = i % kConnections;
        for (double wait = r.time.due - now_s(); wait > 0.0;
             wait = r.time.due - now_s()) {
          if (wait > 2e-4) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait - 1e-4));
          }
        }
        client.send(lo + i);
      }
      lo += counts[ph];
      await_replies(client, lo, 30.0);
    }
    // Closed loop: one request in flight per connection until the segment's
    // kClosedPerRound requests have been answered.
    for (std::size_t id = lo; id < lo + kClosedPerRound; ++id) records[id].phase = kClosed;
    client.start_closed(lo, lo + kClosedPerRound);
    await_replies(client, lo + kClosedPerRound, 60.0);
    client.stop_closed();
    closed_rates.push_back(closed_rate(records, templates, lo, lo + kClosedPerRound));
  }
  client.stop_receiver();
  out.check(!client.failed(), "the client's receiver ran to the end");

  const char* names[kPhases] = {"open_low", "open_high", "closed"};
  std::vector<PhaseResult> phases;
  for (std::size_t ph = 0; ph < kPhases; ++ph) {
    phases.push_back(tally(names[ph], records, templates, ph));
  }
  // A closed-loop request is due when it is sent.
  for (Record& r : records) {
    if (r.phase == kClosed) r.time.due = r.time.sent;
  }

  // Client spans, one tree per request: due -> sent (generator lateness),
  // sent -> reply (the round trip through framing, queue and workers).
  double round_trip_sum = 0.0;
  std::size_t round_trips = 0;
  for (const Record& r : records) {
    if (r.time.reply < 0.0) continue;
    const std::uint64_t req =
        tracer.record("serve.client.request", 0, r.time.due, r.time.reply);
    tracer.record("serve.client.generator_late", req, r.time.due, r.time.sent);
    tracer.record("serve.client.round_trip", req, r.time.sent, r.time.reply);
    round_trip_sum += r.time.reply - r.time.sent;
    ++round_trips;
  }
  const double hits = static_cast<double>(server->cache().hits()) - warm_hits;
  const double misses = static_cast<double>(server->cache().misses()) - warm_misses;
  server->stop();

  // ---- checks and metrics
  std::size_t sent = 0, answered = 0, failed = 0, wrong = 0;
  for (const PhaseResult& p : phases) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s: sent %zu = answered %zu + failed %zu (wrong replies %zu)",
                  p.name.c_str(), p.sent, p.answered, p.failed, p.wrong);
    out.check(p.sent == p.answered + p.failed + p.wrong && p.wrong == 0, buf);
    sent += p.sent;
    answered += p.answered;
    failed += p.failed;
    wrong += p.wrong;
  }
  out.check(wrong == 0, "every reply's energies and forces byte-equal to "
                        "dp::Potential::evaluate on the same frame and model");
  out.attempted = sent;
  out.failed = failed + wrong;

  const Summary low = summarize(phases[0].latency);
  const Summary high = summarize(phases[1].latency);
  const Summary late_low = summarize(phases[0].late);
  const Summary late_high = summarize(phases[1].late);
  // Capacity: the median over rounds of the closed loop's frames per second.
  const double frames_per_s = median(closed_rates);
  std::printf("serve_mix: %zu rounds, each %zu requests at %.0f req/s, %zu at "
              "%.0f req/s, then %zu in a closed loop on %zu connections\n",
              rounds, kLowPerRound, kLowRate, kHighPerRound, kHighRate,
              kClosedPerRound, kConnections);
  std::printf("  low  rate latency from due time: %s\n", describe(low, 1e3, "ms").c_str());
  std::printf("  high rate latency from due time: %s\n", describe(high, 1e3, "ms").c_str());
  std::printf("  generator lateness low: %s; high: %s\n",
              describe(late_low, 1e3, "ms").c_str(),
              describe(late_high, 1e3, "ms").c_str());
  std::printf("serve_p50_ms       = %.6g ms\n", 1e3 * low.p50);
  std::printf("serve_tail_ms      = %.6g ms (p%g, low rate)\n", 1e3 * low.tail, 100 * low.tail_q);
  std::printf("serve_tail_ms_high = %.6g ms (p%g, high rate)\n", 1e3 * high.tail, 100 * high.tail_q);
  std::printf("serve_frames_per_s = %.6g 1/s (median of %zu rounds; lowest %.6g, "
              "highest %.6g)\n", frames_per_s, closed_rates.size(),
              *std::min_element(closed_rates.begin(), closed_rates.end()),
              *std::max_element(closed_rates.begin(), closed_rates.end()));
  std::printf("serve_failed_share = %.6g ratio\n",
              static_cast<double>(out.failed) / static_cast<double>(sent));
  std::printf("serve_mix: traffic (assumed mix): cache hit rate %.4f (%.0f hits, "
              "%.0f misses), %.4f of requests are %zu-frame batches\n",
              hits / std::max(1.0, hits + misses), hits, misses,
              static_cast<double>(batched) / static_cast<double>(total), kBatchFrames);
  std::printf("set-up: inputs %.3f s, server start + warm-up median %.3f s\n",
              gen_s, median(server_setup));

  out.end_to_end = {
      {"setup_s", gen_s + median(server_setup), "s"},
      {"peak_rss_mb", peak_rss_mb(false), "MB"},
      {"throughput_per_s", frames_per_s, "1/s"},
      {"p50_ms", 1e3 * low.p50, "ms"},
      {"tail_ms", 1e3 * low.tail, "ms"},
      {"success_share", static_cast<double>(answered) / static_cast<double>(sent),
       "ratio"},
  };

  // ---- layers from the program's own registry.  Its timing histograms have
  // x4 buckets, so means are exact and percentiles are bucket bounds.
  const auto counter = [](const char* name) {
    return static_cast<double>(obs::metrics().counter(name).value());
  };
  const auto timing = [](const char* name) {
    return obs::metrics().histogram(name, obs::BucketLayout::timing_seconds()).snapshot();
  };
  const obs::HistogramSnapshot request = timing("serve.request_seconds");
  const obs::HistogramSnapshot queue_wait = timing("serve.queue_wait_seconds");
  const auto batch = obs::metrics()
                         .histogram("serve.batch_frames",
                                    obs::BucketLayout::exponential(1.0, 2.0, 10),
                                    obs::Section::kDeterministic)
                         .snapshot();
  const double round_trip_ms = 1e3 * round_trip_sum / std::max<double>(1, round_trips);
  std::printf("serve_mix: mean round trip %.3f ms = server enqueue-to-reply %.3f ms "
              "(queue wait %.3f ms) + outside the workers %.3f ms (framing, IO "
              "thread decode, client receive)\n",
              round_trip_ms, 1e3 * request.mean(), 1e3 * queue_wait.mean(),
              round_trip_ms - 1e3 * request.mean());
  out.layers = {
      {"serve.server.request_mean_ms", 1e3 * request.mean(), "ms"},
      {"serve.server.queue_wait_mean_ms", 1e3 * queue_wait.mean(), "ms"},
      {"serve.server.queue_wait_p99_bound_ms", 1e3 * bucket_bound(queue_wait, 0.99),
       "ms"},
      {"serve.server.batch_frames_mean", batch.mean(), "count"},
      {"serve.cache.hit_rate", hits / std::max(1.0, hits + misses), "ratio"},
      {"serve.server.overload_total", counter("serve.overload"), "count"},
      {"serve.server.errors_total", counter("serve.errors"), "count"},
      {"serve.client.lateness_p50_ms", 1e3 * late_low.p50, "ms"},
  };
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
