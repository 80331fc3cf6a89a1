// Scanner: the §7 static-analysis tool used as a library. It analyses a
// vulnerable translation unit (Listing 13 plus an inter-procedural §3.3
// flow), prints the diagnostics with their §5.1 remediations, and shows
// the traditional scanner finding nothing — the paper's §1 claim about
// existing tools.
//
//	go run ./examples/scanner
package main

import (
	"fmt"
	"log"

	"repro/internal/analyzer"
)

const victim = `
class Student {
 public:
  double gpa;
  int year;
  int semester;
};
class GradStudent : public Student {
 public:
  int ssn[3];
};

char mem_pool[32];

void place(int count) {
  char *buf = new (mem_pool) char[count];
}

void addStudent(bool isGradStudent) {
  Student stud;
  if (isGradStudent) {
    GradStudent *gs = new (&stud) GradStudent();
    cin >> gs->ssn[0] >> gs->ssn[1] >> gs->ssn[2];
  }
  int n_unames = 0;
  cin >> n_unames;
  place(n_unames);
}
`

func main() {
	log.SetFlags(0)

	r, err := analyzer.Analyze(victim, analyzer.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement-new analyzer: %d finding(s)\n", len(r.Diags))
	for _, d := range r.Diags {
		fmt.Printf("  %s\n", d)
		fmt.Printf("      fix: %s\n", d.Suggestion)
	}

	fmt.Printf("\ntraditional scanner (strcpy/gets/sprintf patterns): %d finding(s)\n", len(r.Baseline()))
	fmt.Println("\n\"None of the existing tools can detect buffer overflow vulnerabilities due to placement new.\" (§1)")
}
