// --unused-public fixture: the declarations the report reads.
#pragma once

namespace fx {

struct Widget {
    int size() const;
    void only_tests();
    void only_pair();
    int tally() const;
    auto trailing() const -> int { return 0; }
    void after_trailing();

private:
    void hidden();
};

class Gadget {
    void private_by_default();

public:
    static Gadget make(int seed);
};

enum class Mode { A, B };

using Alias = int;

Widget make_widget(int seed);

int named_in_comment();

inline int inline_body() { return helper_call(1'000); }

namespace detail {
int internal();
}  // namespace detail

}  // namespace fx
