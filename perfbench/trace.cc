#include "trace.hh"

#include <cstdio>
#include <fstream>

namespace perfbench
{

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

int
Tracer::begin(const std::string &name, int parent, int run)
{
    if (!enabled_)
        return -1;
    const double start = nowUs();
    const std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start, start, id, parent, run});
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double stop = nowUs();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endUs = stop;
}

int
Tracer::add(const std::string &name, double startUs, double endUs,
            int parent, int run)
{
    if (!enabled_)
        return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, startUs, endUs, id, parent, run});
    return id;
}

int
Tracer::newRun()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return nextRun_++;
}

std::size_t
Tracer::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &manifestJson) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << manifestJson
        << ",\"traceEvents\":[\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // One track per simulated run keeps a run's spans nested.
        std::snprintf(buf, sizeof buf,
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      s.run + 1, s.startUs, s.endUs - s.startUs);
        out << "{\"name\":\"" << jsonEscape(s.name) << buf
            << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"run\":" << s.run << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
